package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-width-bin histogram over [Lo, Hi). Samples outside
// the range are clamped into the first/last bin so totals are preserved.
type Histogram struct {
	Lo, Hi float64
	Bins   []int
	total  int
}

// NewHistogram creates a histogram with n equal-width bins spanning
// [lo, hi). It panics when n <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 {
		panic("stats: NewHistogram with non-positive bin count")
	}
	if hi <= lo {
		panic("stats: NewHistogram with hi <= lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int, n)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	idx := int(math.Floor((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Bins))))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Bins) {
		idx = len(h.Bins) - 1
	}
	h.Bins[idx]++
	h.total++
}

// Total returns the number of recorded samples.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Bins))
	return h.Lo + w*(float64(i)+0.5)
}

// Render draws a textual bar chart, one row per bin, with bars scaled to
// width characters. Useful for experiment logs (e.g. Figure 11).
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 40
	}
	maxBin := 0
	for _, b := range h.Bins {
		if b > maxBin {
			maxBin = b
		}
	}
	var sb strings.Builder
	for i, b := range h.Bins {
		bar := 0
		if maxBin > 0 {
			bar = b * width / maxBin
		}
		fmt.Fprintf(&sb, "%10.1f | %-*s %d\n", h.BinCenter(i), width, strings.Repeat("#", bar), b)
	}
	return sb.String()
}

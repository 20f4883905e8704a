package stats

import (
	"strings"
	"testing"
	"time"
)

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(0.5)
	h.Add(9.5)
	h.Add(5.0)
	if h.Total() != 3 {
		t.Fatalf("Total = %d", h.Total())
	}
	if h.Bins[0] != 1 || h.Bins[9] != 1 || h.Bins[5] != 1 {
		t.Fatalf("bins = %v", h.Bins)
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Add(-100)
	h.Add(1000)
	if h.Bins[0] != 1 || h.Bins[4] != 1 {
		t.Fatalf("clamping failed: %v", h.Bins)
	}
	if h.Total() != 2 {
		t.Fatalf("Total = %d", h.Total())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0, 1, 3)
	if h.Total() != 0 {
		t.Fatalf("empty Total = %d", h.Total())
	}
	// No sample to scale by: three rows, no bars.
	if out := h.Render(10); strings.Count(out, "\n") != 3 || strings.Contains(out, "#") {
		t.Fatalf("empty render:\n%s", out)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	if got := h.BinCenter(0); got != 0.5 {
		t.Fatalf("BinCenter(0) = %v", got)
	}
	if got := h.BinCenter(9); got != 9.5 {
		t.Fatalf("BinCenter(9) = %v", got)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0, 2, 2)
	h.Add(0.1)
	h.Add(0.2)
	h.Add(1.5)
	out := h.Render(10)
	if !strings.Contains(out, "#") {
		t.Fatalf("render has no bars:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 2 {
		t.Fatalf("render row count wrong:\n%s", out)
	}
}

func TestTimeSeriesRecordAndValues(t *testing.T) {
	ts := NewTimeSeries("tokens")
	ts.Record(time.Second, 100)
	ts.Record(2*time.Second, 200)
	vs := ts.Values()
	if len(vs) != 2 || vs[0] != 100 || vs[1] != 200 {
		t.Fatalf("Values = %v", vs)
	}
	if ts.Summary().Mean != 150 {
		t.Fatalf("Summary mean = %v", ts.Summary().Mean)
	}
}

func TestTimeSeriesCSV(t *testing.T) {
	ts := NewTimeSeries("util")
	ts.Record(time.Second, 0.5)
	csv := ts.CSV()
	if !strings.HasPrefix(csv, "seconds,util\n") {
		t.Fatalf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, "1.000000,0.5") {
		t.Fatalf("csv row missing: %q", csv)
	}
}

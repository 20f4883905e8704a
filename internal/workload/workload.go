// Package workload synthesizes and loads the request traces the paper
// evaluates on. Since the actual ShareGPT/Azure datasets are not bundled,
// the package provides calibrated synthetic generators matching the
// published distribution shape (Figure 11: the Azure trace has 5.21x longer
// inputs and 1.66x longer outputs than ShareGPT on average), plus loaders
// for the real trace formats so genuine data can be dropped in.
package workload

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"gllm/internal/stats"
)

// Item is one request of a trace: arrival offset plus prompt/output
// lengths. PrefixGroup (non-zero) marks the first SharedPrefixLen prompt
// tokens as shared content of that group — multi-turn conversations reuse
// their accumulated context this way (prefix caching).
type Item struct {
	Arrival         time.Duration
	PromptLen       int
	OutputLen       int
	PrefixGroup     int64
	SharedPrefixLen int
}

// Dataset is a log-normal length model of a request corpus. Samples are
// clipped into [InMin,InMax] / [OutMin,OutMax].
type Dataset struct {
	Name     string
	InMu     float64
	InSigma  float64
	OutMu    float64
	OutSigma float64
	InMin    int
	InMax    int
	OutMin   int
	OutMax   int
}

// Calibrated corpora. ShareGPT reflects chat-style conversations (short
// prompts, comparable outputs). Azure reflects the production LLM inference
// trace (much longer inputs). Parameters were calibrated so the synthetic
// Azure-to-ShareGPT mean-length ratios match the paper's measured 5.21x
// (input) and 1.66x (output).
var (
	ShareGPT = Dataset{
		Name: "sharegpt",
		InMu: 5.19, InSigma: 1.10,
		OutMu: 4.98, OutSigma: 1.00,
		InMin: 4, InMax: 4096,
		OutMin: 1, OutMax: 2048,
	}
	Azure = Dataset{
		Name: "azure",
		InMu: 7.07, InSigma: 0.90,
		OutMu: 5.55, OutSigma: 0.80,
		InMin: 16, InMax: 8192,
		OutMin: 1, OutMax: 2048,
	}
)

// ByName returns a built-in dataset.
func ByName(name string) (Dataset, error) {
	switch name {
	case ShareGPT.Name:
		return ShareGPT, nil
	case Azure.Name:
		return Azure, nil
	}
	return Dataset{}, fmt.Errorf("workload: unknown dataset %q", name)
}

// Sample draws one (promptLen, outputLen) pair.
func (d Dataset) Sample(r *stats.RNG) (promptLen, outputLen int) {
	in := int(math.Round(r.LogNormal(d.InMu, d.InSigma)))
	out := int(math.Round(r.LogNormal(d.OutMu, d.OutSigma)))
	return clamp(in, d.InMin, d.InMax), clamp(out, d.OutMin, d.OutMax)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// maxTraceRequests caps the expected length, rate × window, of a
// synthesized trace. Generating it is a run's first step, and a ShareGPT
// trace of this length takes 0.4 s and 200 MB to build on one core of a
// 2-core x86 VM, before anything is served or simulated.
const maxTraceRequests = 1 << 20

// CheckRate reports why Poisson or Conversations should not synthesize a
// trace at rate requests/s over window: the rate is not finite and above 0
// (NaN and +Inf never end the window), the window is not above 0, or the
// expected length rate × window exceeds maxTraceRequests. The error names
// no flag; a command prefixes its own.
func CheckRate(rate float64, window time.Duration) error {
	switch {
	case !(rate > 0 && rate <= math.MaxFloat64):
		return errors.New("want a finite rate above 0")
	case window <= 0:
		return errors.New("want a window above 0")
	}
	if n := rate * window.Seconds(); n > maxTraceRequests {
		return fmt.Errorf("%.3g expected requests, limit %d", n, maxTraceRequests)
	}
	return nil
}

// Poisson generates an open-loop trace: arrivals follow a Poisson process
// with `rate` requests/s over `window` (the paper fixes a 128 s send
// window), lengths drawn from d. The result is sorted by arrival.
func Poisson(r *stats.RNG, d Dataset, rate float64, window time.Duration) []Item {
	if !(rate > 0 && rate <= math.MaxFloat64) { // NaN and +Inf never end the window
		panic(fmt.Sprintf("workload: Poisson rate %g", rate))
	}
	if window <= 0 {
		panic(fmt.Sprintf("workload: Poisson window %v", window))
	}
	var items []Item
	t := time.Duration(0)
	for {
		gap := time.Duration(r.Exp(rate) * float64(time.Second))
		t += gap
		if t >= window {
			break
		}
		p, o := d.Sample(r)
		items = append(items, Item{Arrival: t, PromptLen: p, OutputLen: o})
	}
	return items
}

// Burst generates n requests all arriving at the same instant — the
// arrival pattern behind the paper's Figure 1/4/6 case studies.
func Burst(r *stats.RNG, d Dataset, n int, at time.Duration) []Item {
	if n <= 0 {
		panic(fmt.Sprintf("workload: Burst n = %d", n))
	}
	items := make([]Item, n)
	for i := range items {
		p, o := d.Sample(r)
		items[i] = Item{Arrival: at, PromptLen: p, OutputLen: o}
	}
	return items
}

// Uniform generates n requests with identical lengths at a fixed
// inter-arrival gap; useful for controlled micro-benchmarks and tests.
func Uniform(n, promptLen, outputLen int, gap time.Duration) []Item {
	if n <= 0 || promptLen <= 0 || outputLen <= 0 {
		panic(fmt.Sprintf("workload: Uniform n=%d p=%d o=%d", n, promptLen, outputLen))
	}
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			Arrival:   time.Duration(i) * gap,
			PromptLen: promptLen,
			OutputLen: outputLen,
		}
	}
	return items
}

// Sort orders items by arrival (stable), in place.
func Sort(items []Item) {
	slices.SortStableFunc(items, func(a, b Item) int { return cmp.Compare(a.Arrival, b.Arrival) })
}

// Validate checks that a trace is usable by the engines.
func Validate(items []Item) error {
	for i, it := range items {
		if it.PromptLen <= 0 || it.OutputLen <= 0 {
			return fmt.Errorf("workload: item %d has lengths %d/%d", i, it.PromptLen, it.OutputLen)
		}
		if it.Arrival < 0 {
			return fmt.Errorf("workload: item %d arrives at %v", i, it.Arrival)
		}
		if i > 0 && it.Arrival < items[i-1].Arrival {
			return fmt.Errorf("workload: items not sorted at %d", i)
		}
	}
	return nil
}

// Summary describes a trace's length distributions (Figure 11's data).
type Summary struct {
	Requests int
	Input    stats.Summary
	Output   stats.Summary
}

// Summarize computes a trace summary.
func Summarize(items []Item) Summary {
	in := make([]float64, len(items))
	out := make([]float64, len(items))
	for i, it := range items {
		in[i] = float64(it.PromptLen)
		out[i] = float64(it.OutputLen)
	}
	return Summary{Requests: len(items), Input: stats.Summarize(in), Output: stats.Summarize(out)}
}

// TotalTokens returns the sum of prompt and output lengths in the trace.
func TotalTokens(items []Item) int64 {
	var n int64
	for _, it := range items {
		n += int64(it.PromptLen + it.OutputLen)
	}
	return n
}

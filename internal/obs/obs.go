// Package obs is the unified observability layer of the serving stack: a
// low-overhead span recorder capturing per-stage, per-micro-batch
// execute/transfer/prepare intervals from both the virtual-time engines
// (internal/engine) and the live concurrent runtime (internal/runtime),
// first-class pipeline-bubble accounting (the quantity the gLLM paper's
// Token Throttling minimizes, §3), request-lifecycle tracing (reqtrace.go),
// and one Chrome trace-event JSON codec for both (chrome.go), loadable in
// chrome://tracing or Perfetto.
//
// Overhead discipline: producers guard every call site with a nil check (a
// nil *Recorder is also safe to call), so a run without tracing pays zero
// allocations and zero synchronization per micro-batch. An enabled recorder
// writes into a preallocated ring buffer under a mutex — recording never
// allocates; when the ring wraps, the oldest spans are dropped (and
// counted). Whole-run totals are kept by the code that books the windows,
// and Account builds every per-stage summary from them or from spans.
package obs

import (
	"fmt"
	"sync"
	"time"

	"gllm/internal/ring"
	"gllm/internal/stats"
)

// Kind classifies what a span's interval was spent on.
type Kind uint8

// Span kinds.
const (
	// KindExec: a pipeline stage executing a micro-batch's forward pass.
	KindExec Kind = iota
	// KindXfer: an activation (or KV) transfer on the link leaving a stage.
	KindXfer
	// KindPrep: driver-side input preparation / scheduling CPU time.
	KindPrep
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindExec:
		return "exec"
	case KindXfer:
		return "xfer"
	case KindPrep:
		return "prep"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// KindByName reverses String (for the trace decoder). Unknown names return
// an error rather than a zero Kind so corrupted traces fail validation.
func KindByName(s string) (Kind, error) {
	switch s {
	case "exec":
		return KindExec, nil
	case "xfer":
		return KindXfer, nil
	case "prep":
		return KindPrep, nil
	default:
		return 0, fmt.Errorf("obs: unknown span kind %q", s)
	}
}

// PrepStage is the pseudo-stage index of driver-side KindPrep spans (the
// driver CPU is not a pipeline stage and is excluded from bubble
// accounting).
const PrepStage = -1

// Span is one recorded occupancy interval. Times are relative to the run's
// origin (virtual time zero in the simulator, Runtime start in the live
// system).
type Span struct {
	Start  time.Duration
	End    time.Duration
	Seq    int32 // micro-batch injection ordinal
	Tokens int32 // batched tokens carried by the micro-batch
	Stage  int16 // pipeline stage, or PrepStage for driver prep
	Kind   Kind
}

// Dur returns the span's length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// DefaultCapacity is the ring size used when NewRecorder is given a
// non-positive capacity: 64Ki spans ≈ 2.6 MB, hours of micro-batches.
const DefaultCapacity = 1 << 16

// Recorder captures spans into a preallocated ring buffer. All methods are
// safe for concurrent use, and all methods are safe on a nil receiver
// (no-ops / zero values), so producers can thread an optional *Recorder
// without branching beyond a nil check. It keeps spans only: whole-run
// totals are the producer's ledger's (engine.Stages, the engines' Result),
// since a wrapped ring has lost the oldest spans.
type Recorder struct {
	mu     sync.Mutex
	stages int
	ring   ring.Buffer[Span]
}

// NewRecorder creates a recorder for the given pipeline stage count, with a
// ring of the given capacity (DefaultCapacity when non-positive).
func NewRecorder(stages, capacity int) *Recorder {
	if stages < 1 {
		panic(fmt.Sprintf("obs: recorder with %d stages", stages))
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{stages: stages, ring: ring.New[Span](capacity)}
}

// Stages returns the pipeline stage count (0 on a nil recorder).
func (r *Recorder) Stages() int {
	if r == nil {
		return 0
	}
	return r.stages
}

// Record captures one span. stage must be in [0, Stages) — or PrepStage for
// KindPrep — and end must not precede start; violations panic (producer
// bug). Recording never allocates.
func (r *Recorder) Record(stage int, kind Kind, seq, tokens int, start, end time.Duration) {
	if r == nil {
		return
	}
	if end < start {
		panic(fmt.Sprintf("obs: span ends %v before start %v", end, start))
	}
	if stage == PrepStage && kind != KindPrep {
		panic(fmt.Sprintf("obs: %v span on the prep pseudo-stage", kind))
	}
	if stage != PrepStage && (stage < 0 || stage >= r.stages) {
		panic(fmt.Sprintf("obs: stage %d out of %d", stage, r.stages))
	}
	span := Span{
		Start:  start,
		End:    end,
		Seq:    int32(seq),
		Tokens: int32(tokens),
		Stage:  int16(stage),
		Kind:   kind,
	}
	r.mu.Lock()
	r.ring.Push(span)
	r.mu.Unlock()
}

// Total returns the number of spans ever recorded.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Total()
}

// Dropped returns how many spans the ring overwrote (Total − retained).
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Dropped()
}

// Spans returns a copy of the retained spans in recording order (oldest
// first).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Snapshot()
}

// StageStat is one pipeline stage's occupancy accounting over a window.
type StageStat struct {
	Stage    int
	Busy     time.Duration // KindExec time
	Transfer time.Duration // outgoing KindXfer time
	Idle     time.Duration // window − busy (the stage's bubble time)
	// BubbleRate is the stage's idle fraction of the window — the paper's
	// §3 per-stage bubble rate (transfers overlap with other batches'
	// compute in a pipelined engine and are not counted as busy).
	BubbleRate float64
}

// Accounting summarizes a run's per-stage occupancy over a window.
type Accounting struct {
	Window     time.Duration
	Spans      uint64        // spans recorded (set by AccountSpans or the caller)
	Dropped    uint64        // spans lost to ring wraparound
	PrepTime   time.Duration // cumulative driver prep
	Stages     []StageStat
	BubbleRate float64 // the stages' aggregate BubbleRate over Window
}

// Account summarizes stages busy for busy[s] and transferring for
// transfer[s], and a driver that prepped for prep, over window. Each
// stage's bubble rate and the aggregate one are BubbleRate's.
func Account(busy, transfer []time.Duration, prep, window time.Duration) Accounting {
	acc := Accounting{
		Window:     window,
		PrepTime:   prep,
		Stages:     make([]StageStat, len(busy)),
		BubbleRate: BubbleRate(busy, window),
	}
	for s, b := range busy {
		acc.Stages[s] = StageStat{Stage: s, Busy: b, Transfer: transfer[s],
			Idle: max(window-b, 0), BubbleRate: BubbleRate(busy[s:s+1], window)}
	}
	return acc
}

// BubbleRate is the paper's §3 bubble rate over window, stage s busy for
// busy[s]: 1 − Σ_s busy_s / (len(busy) × window); 0 over no window.
func BubbleRate(busy []time.Duration, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	var total time.Duration
	for _, b := range busy {
		total += b
	}
	return 1 - float64(total)/float64(window*time.Duration(len(busy)))
}

// AccountSpans sums a span slice (e.g. a decoded trace) per stage and
// accounts it over the given window; a non-positive window uses the spans'
// extent, from the first start to the last end. stages must cover every
// exec and xfer span's stage index.
func AccountSpans(spans []Span, stages int, window time.Duration) Accounting {
	busy, transfer := make([]time.Duration, stages), make([]time.Duration, stages)
	var prep, first, last time.Duration
	for i, s := range spans {
		switch s.Kind {
		case KindExec:
			busy[s.Stage] += s.Dur()
		case KindXfer:
			transfer[s.Stage] += s.Dur()
		case KindPrep:
			prep += s.Dur()
		}
		if i == 0 {
			first, last = s.Start, s.End
		}
		first, last = min(first, s.Start), max(last, s.End)
	}
	if window <= 0 {
		window = last - first
	}
	acc := Account(busy, transfer, prep, window)
	acc.Spans = uint64(len(spans))
	return acc
}

// Utilization returns one "stage<s>-util" series per stage: point k, for k
// = 1 … ⌈end/p⌉ and stamped k·p, is the time stage s's exec spans overlap
// ((k−1)p, kp], divided by p. The spans must be a whole run's — a recorder
// that dropped some would give a silently lower series.
func Utilization(spans []Span, stages int, p, end time.Duration) []*stats.TimeSeries {
	windows := int((end + p - 1) / p)
	busy := make([][]time.Duration, stages)
	for s := range busy {
		busy[s] = make([]time.Duration, windows)
	}
	for _, sp := range spans {
		if sp.Kind != KindExec {
			continue
		}
		// Window k covers (k·p, (k+1)·p].
		for k := int(sp.Start / p); k < windows && time.Duration(k)*p < sp.End; k++ {
			lo, hi := max(sp.Start, time.Duration(k)*p), min(sp.End, time.Duration(k+1)*p)
			busy[sp.Stage][k] += hi - lo
		}
	}
	out := make([]*stats.TimeSeries, stages)
	for s, ws := range busy {
		out[s] = stats.NewTimeSeries(fmt.Sprintf("stage%d-util", s))
		for k, b := range ws {
			out[s].Record(time.Duration(k+1)*p, float64(b)/float64(p))
		}
	}
	return out
}

// String renders the accounting as a compact per-stage table.
func (a Accounting) String() string {
	s := fmt.Sprintf("window=%.3fs spans=%d dropped=%d prep=%.3fs bubble=%.3f\n",
		a.Window.Seconds(), a.Spans, a.Dropped, a.PrepTime.Seconds(), a.BubbleRate)
	for _, st := range a.Stages {
		s += fmt.Sprintf("  stage%d: busy=%.3fs xfer=%.3fs idle=%.3fs bubble=%.3f\n",
			st.Stage, st.Busy.Seconds(), st.Transfer.Seconds(), st.Idle.Seconds(), st.BubbleRate)
	}
	return s
}

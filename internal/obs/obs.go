// Package obs is the unified observability layer of the serving stack: a
// low-overhead span recorder capturing per-stage, per-micro-batch
// execute/transfer/prepare intervals from both the virtual-time engines
// (internal/engine) and the live concurrent runtime (internal/runtime),
// first-class pipeline-bubble accounting (the quantity the gLLM paper's
// Token Throttling minimizes, §3), and Chrome trace-event JSON export
// loadable in chrome://tracing or Perfetto.
//
// Overhead discipline: producers guard every call site with a nil check (a
// nil *Recorder is also safe to call), so a run without tracing pays zero
// allocations and zero synchronization per micro-batch. An enabled recorder
// writes into a preallocated ring buffer under a mutex — recording never
// allocates; when the ring wraps, the oldest spans are dropped (and
// counted), while the cumulative busy/transfer accounting keeps exact
// whole-run totals regardless of ring capacity.
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

// Recorder captures spans into a preallocated ring buffer and maintains
// exact cumulative per-stage occupancy totals. All methods are safe for
// concurrent use, and all methods are safe on a nil receiver (no-ops /
// zero values), so producers can thread an optional *Recorder without
// branching beyond a nil check.
type Recorder struct {
	mu     sync.Mutex
	stages int
	ring   ring.Buffer[Span]

	busy     []time.Duration // per-stage cumulative KindExec time
	transfer []time.Duration // per-stage cumulative outgoing KindXfer time
	prep     time.Duration   // cumulative driver KindPrep time
	hasSpan  bool
	first    time.Duration // earliest span start
	last     time.Duration // latest span end
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
	return &Recorder{
		stages:   stages,
		ring:     ring.New[Span](capacity),
		busy:     make([]time.Duration, stages),
		transfer: make([]time.Duration, stages),
	}
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
	r.mu.Lock()
	r.ring.Push(Span{
		Start:  start,
		End:    end,
		Seq:    int32(seq),
		Tokens: int32(tokens),
		Stage:  int16(stage),
		Kind:   kind,
	})
	switch kind {
	case KindExec:
		r.busy[stage] += end - start
	case KindXfer:
		r.transfer[stage] += end - start
	case KindPrep:
		r.prep += end - start
	}
	if !r.hasSpan || start < r.first {
		r.first = start
	}
	if !r.hasSpan || end > r.last {
		r.last = end
	}
	r.hasSpan = true
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

// Accounting summarizes a recorder (or decoded trace) over a window.
type Accounting struct {
	Start, End time.Duration // accounting window
	Window     time.Duration // End − Start
	Spans      uint64        // spans ever recorded
	Dropped    uint64        // spans lost to ring wraparound
	PrepTime   time.Duration // cumulative driver prep
	Stages     []StageStat
	// BubbleRate is the aggregate bubble rate across stages:
	// 1 − Σ_s busy_s / (S × Window).
	BubbleRate float64
}

// Account summarizes over the recorded extent [first span start, last span
// end]. The zero Accounting is returned for an empty or nil recorder.
func (r *Recorder) Account() Accounting {
	if r == nil {
		return Accounting{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.hasSpan {
		return Accounting{}
	}
	return r.account(r.first, r.last)
}

// AccountOver summarizes over the fixed window [0, window] — the engines'
// makespan-based bubble accounting uses virtual time zero as the origin.
func (r *Recorder) AccountOver(window time.Duration) Accounting {
	if r == nil {
		return Accounting{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.account(0, window)
}

// account computes the summary from the cumulative counters; callers hold
// r.mu.
func (r *Recorder) account(start, end time.Duration) Accounting {
	acc := Accounting{
		Start:    start,
		End:      end,
		Window:   end - start,
		Spans:    r.ring.Total(),
		Dropped:  r.ring.Dropped(),
		PrepTime: r.prep,
		Stages:   make([]StageStat, r.stages),
	}
	var busyTotal time.Duration
	for s := 0; s < r.stages; s++ {
		st := StageStat{Stage: s, Busy: r.busy[s], Transfer: r.transfer[s]}
		if acc.Window > 0 {
			st.Idle = acc.Window - st.Busy
			if st.Idle < 0 {
				st.Idle = 0
			}
			st.BubbleRate = float64(st.Idle) / float64(acc.Window)
		}
		acc.Stages[s] = st
		busyTotal += st.Busy
	}
	if acc.Window > 0 {
		acc.BubbleRate = 1 - float64(busyTotal)/float64(acc.Window*time.Duration(r.stages))
	}
	return acc
}

// AccountSpans summarizes a span slice (e.g. a decoded trace) over the
// given window; a non-positive window uses the spans' extent. stages must
// cover every exec span's stage index.
func AccountSpans(spans []Span, stages int, window time.Duration) Accounting {
	rec := NewRecorder(stages, len(spans)+1)
	for _, s := range spans {
		rec.Record(int(s.Stage), s.Kind, int(s.Seq), int(s.Tokens), s.Start, s.End)
	}
	if window > 0 {
		return rec.AccountOver(window)
	}
	return rec.Account()
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

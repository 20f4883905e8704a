// Package request models the lifecycle of one serving request: it arrives
// with a prompt, is prefilled (possibly in chunks across iterations),
// decodes until its target output length, and may be preempted under KV
// pressure (recompute mode, like vLLM), which sends its whole accumulated
// context back through prefill.
package request

import (
	"fmt"
	"time"

	"gllm/internal/kvcache"
	"gllm/internal/obs"
)

// State is a request's position in the serving lifecycle.
type State int

// Lifecycle states.
const (
	// StateWaiting: queued, no KV resident (fresh or preempted).
	StateWaiting State = iota
	// StatePrefilling: at least one prompt chunk scheduled or done, prefill
	// not yet complete.
	StatePrefilling
	// StateDecoding: prefill complete, generating output tokens.
	StateDecoding
	// StateFinished: all output tokens generated.
	StateFinished
	// StateAborted: cancelled, timed out, or shut down before completion;
	// removed from the pool with its KV released. Terminal.
	StateAborted
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateWaiting:
		return "waiting"
	case StatePrefilling:
		return "prefilling"
	case StateDecoding:
		return "decoding"
	case StateFinished:
		return "finished"
	case StateAborted:
		return "aborted"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Request is one serving request. Fields are managed by the scheduler and
// engine; user code should treat them as read-only.
type Request struct {
	ID        int64
	Arrival   time.Duration // arrival (virtual) time
	PromptLen int           // prompt tokens
	OutputLen int           // target output tokens (termination criterion)

	// PrefixGroup (non-zero) declares that the first SharedPrefixLen prompt
	// tokens are shared content of that group (e.g. a conversation's
	// accumulated context), enabling prefix-cache reuse.
	PrefixGroup     int64
	SharedPrefixLen int

	// Trace is the distributed request-trace context (zero = untraced).
	// Set at submission and read by the runtime driver when it records
	// queue/prefill/decode lifecycle spans at termination.
	Trace obs.TraceID

	state          State
	prefillDone    int   // tokens of the current prefill target already computed
	inFlightChunks []int // prefill chunks scheduled in in-flight micro-batches (FIFO)
	generated      int   // output tokens produced
	decodeBusy     bool
	hasFirstToken  bool // beside decodeBusy: the struct stays in the 208-byte size class

	// On preemption the full context (prompt + generated) must be
	// recomputed; prefillTarget tracks the current prefill goal and
	// genInTarget the generated tokens folded into it (so ContextLen does
	// not double-count them).
	prefillTarget int
	genInTarget   int

	// Metrics (virtual times; zero means "not yet").
	FirstSchedule time.Duration
	FirstToken    time.Duration
	Finish        time.Duration
	Preemptions   int

	// emitted counts generated tokens already delivered to the submitter's
	// stream. Owned by the serving driver; the schedulers and engines never
	// touch it. Monotone: Generated() never decreases (preemption recomputes
	// KV, not tokens), so emitted ≤ generated always holds.
	emitted int

	// Owner is the serving driver's per-request state (the runtime hangs
	// the request's Handle here, so token delivery reaches it without a map
	// lookup per token). Opaque to the schedulers and engines, which never touch
	// it; nil outside a live runtime and after the request terminates.
	Owner any

	// SchedMark is batch-membership scratch stamped by sched.Pool's batch
	// builders; treat as opaque. It replaces a per-call membership map on
	// the scheduling hot path.
	SchedMark uint64
	// SchedStamp belongs to the Scheduler the way SchedMark belongs to the
	// Pool: a policy that partitions requests (a cohort, a virtual engine)
	// stamps its members here and filters on the word instead of keeping a
	// map keyed by request. Zero means never stamped.
	SchedStamp uint64
	// KVSeq is sched.Pool's handle on the request's KV sequence, so the
	// per-token decode append skips the cache's lookup by ID; treat as
	// opaque (DESIGN.md §8).
	KVSeq kvcache.Handle
}

// New creates a waiting request. It panics on non-positive prompt or output
// lengths: every served request produces at least one token from at least
// one prompt token.
func New(id int64, arrival time.Duration, promptLen, outputLen int) *Request {
	if promptLen <= 0 {
		panic(fmt.Sprintf("request %d: promptLen = %d", id, promptLen))
	}
	if outputLen <= 0 {
		panic(fmt.Sprintf("request %d: outputLen = %d", id, outputLen))
	}
	return &Request{
		ID:            id,
		Arrival:       arrival,
		PromptLen:     promptLen,
		OutputLen:     outputLen,
		state:         StateWaiting,
		prefillTarget: promptLen,
	}
}

// State returns the current lifecycle state.
func (r *Request) State() State { return r.state }

// Generated returns the number of output tokens produced so far.
func (r *Request) Generated() int { return r.generated }

// PrefillDone returns the committed prefill progress toward the current
// prefill target.
func (r *Request) PrefillDone() int { return r.prefillDone }

// PrefillTarget returns the tokens that must be prefilled before decoding
// (the prompt, or prompt+generated after a preemption).
func (r *Request) PrefillTarget() int { return r.prefillTarget }

// RemainingPrefill returns prefill tokens not yet computed or in flight.
func (r *Request) RemainingPrefill() int {
	return r.prefillTarget - r.prefillDone - r.InFlightPrefill()
}

// InFlightPrefill returns prefill tokens currently scheduled.
func (r *Request) InFlightPrefill() int {
	n := 0
	for _, c := range r.inFlightChunks {
		n += c
	}
	return n
}

// InFlightChunks returns how many prefill chunks are currently scheduled
// (more than one only under chunked pipeline parallelism).
func (r *Request) InFlightChunks() int { return len(r.inFlightChunks) }

// DecodeBusy reports whether the request's next decode token is currently
// scheduled in an in-flight micro-batch.
func (r *Request) DecodeBusy() bool { return r.decodeBusy }

// ContextLen returns the sequence length the next token attends over:
// committed prefill plus generated tokens not already folded into the
// prefill target by a preemption (for decode, this is the KV length).
func (r *Request) ContextLen() int { return r.prefillDone + r.generated - r.genInTarget }

// ScheduleChunk marks n prefill tokens as in flight. Multiple chunks may
// be in flight simultaneously (chunked pipeline parallelism: each chunk
// rides one micro-batch behind its predecessor); chunks complete FIFO. The
// scheduler must have verified availability; violations panic (model bug).
func (r *Request) ScheduleChunk(n int, now time.Duration) {
	if n <= 0 || n > r.RemainingPrefill() {
		panic(fmt.Sprintf("request %d: bad chunk %d (remaining %d)", r.ID, n, r.RemainingPrefill()))
	}
	if r.state != StateWaiting && r.state != StatePrefilling {
		panic(fmt.Sprintf("request %d: chunk scheduled in state %s", r.ID, r.state))
	}
	if r.state == StateWaiting {
		r.state = StatePrefilling
		if r.FirstSchedule == 0 {
			r.FirstSchedule = now
		}
	}
	r.inFlightChunks = append(r.inFlightChunks, n)
}

// CompleteChunk commits the oldest in-flight prefill chunk at virtual time
// now. When it finishes the prefill target (and no later chunk remains in
// flight), the request produces its first output token (fresh requests) or
// resumes decoding (preempted requests) and moves to StateDecoding.
func (r *Request) CompleteChunk(now time.Duration) {
	if r.state != StatePrefilling || len(r.inFlightChunks) == 0 {
		panic(fmt.Sprintf("request %d: CompleteChunk in state %s inflight %d", r.ID, r.state, len(r.inFlightChunks)))
	}
	r.prefillDone += r.inFlightChunks[0]
	// Shift down rather than reslice, so the next ScheduleChunk appends into
	// the same array instead of allocating one per chunk.
	r.inFlightChunks = r.inFlightChunks[:copy(r.inFlightChunks, r.inFlightChunks[1:])]
	if r.prefillDone < r.prefillTarget || len(r.inFlightChunks) > 0 {
		return
	}
	r.state = StateDecoding
	if r.generated == 0 {
		// Prefill's final chunk emits the first output token.
		r.generated = 1
		r.hasFirstToken = true
		r.FirstToken = now
		if r.generated >= r.OutputLen {
			r.state = StateFinished
			r.Finish = now
		}
	}
}

// ScheduleDecode marks the request's next decode token as in flight.
func (r *Request) ScheduleDecode() {
	if r.state != StateDecoding {
		panic(fmt.Sprintf("request %d: decode scheduled in state %s", r.ID, r.state))
	}
	if r.decodeBusy {
		panic(fmt.Sprintf("request %d: overlapping decode steps", r.ID))
	}
	r.decodeBusy = true
}

// CompleteDecode commits one generated token at virtual time now and
// reports whether the request just finished.
func (r *Request) CompleteDecode(now time.Duration) bool {
	if r.state != StateDecoding || !r.decodeBusy {
		panic(fmt.Sprintf("request %d: CompleteDecode in state %s busy %v", r.ID, r.state, r.decodeBusy))
	}
	r.decodeBusy = false
	r.generated++
	if r.generated >= r.OutputLen {
		r.state = StateFinished
		r.Finish = now
		return true
	}
	return false
}

// Preempt evicts the request under KV pressure (recompute mode): all
// context must be prefilled again before decoding resumes. Only decoding
// requests with no in-flight work can be preempted.
func (r *Request) Preempt() {
	if r.state != StateDecoding || r.decodeBusy {
		panic(fmt.Sprintf("request %d: Preempt in state %s busy %v", r.ID, r.state, r.decodeBusy))
	}
	r.prefillTarget = r.prefillDone + r.generated - r.genInTarget
	r.genInTarget = r.generated
	r.prefillDone = 0
	r.state = StateWaiting
	r.Preemptions++
}

// SkipPrefill credits n prefill tokens as already computed (a prefix-cache
// hit): their KV was attached from the cache, so no forward pass is needed.
// Valid only at the start of a prefill pass (no progress, nothing in
// flight) and must leave at least one token to compute — the final prompt
// token always runs so the first output token can be sampled.
func (r *Request) SkipPrefill(n int) {
	if r.state != StateWaiting || r.prefillDone != 0 || len(r.inFlightChunks) != 0 {
		panic(fmt.Sprintf("request %d: SkipPrefill in state %s done %d inflight %d", r.ID, r.state, r.prefillDone, len(r.inFlightChunks)))
	}
	if n <= 0 || n >= r.prefillTarget {
		panic(fmt.Sprintf("request %d: SkipPrefill(%d) with target %d", r.ID, n, r.prefillTarget))
	}
	r.prefillDone = n
}

// ResetPrefill restarts an in-progress prefill from zero after its KV was
// evicted to make room for a higher-priority request. Only mid-prefill
// requests with no in-flight chunk can be reset.
func (r *Request) ResetPrefill() {
	if r.state != StatePrefilling || len(r.inFlightChunks) > 0 {
		panic(fmt.Sprintf("request %d: ResetPrefill in state %s inflight %d", r.ID, r.state, len(r.inFlightChunks)))
	}
	r.prefillDone = 0
	r.state = StateWaiting
	r.Preemptions++
}

// Abort terminates the request before completion (cancellation, deadline,
// or runtime shutdown). Only quiescent, non-terminal requests can be
// aborted: the driver aborts at micro-batch boundaries, never while a chunk
// or decode step is in flight (the executing batch would reference a freed
// sequence).
func (r *Request) Abort() {
	if r.state == StateFinished || r.state == StateAborted {
		panic(fmt.Sprintf("request %d: Abort in terminal state %s", r.ID, r.state))
	}
	if r.decodeBusy || len(r.inFlightChunks) > 0 {
		panic(fmt.Sprintf("request %d: Abort with in-flight work (busy %v, chunks %d)",
			r.ID, r.decodeBusy, len(r.inFlightChunks)))
	}
	r.state = StateAborted
}

// Emitted returns how many generated tokens have been delivered downstream.
func (r *Request) Emitted() int { return r.emitted }

// MarkEmitted records that all generated tokens up to n (exclusive) have
// been delivered. Delivery is append-only; going backwards is a driver bug.
func (r *Request) MarkEmitted(n int) {
	if n < r.emitted || n > r.generated {
		panic(fmt.Sprintf("request %d: MarkEmitted(%d) with emitted %d generated %d",
			r.ID, n, r.emitted, r.generated))
	}
	r.emitted = n
}

// Aborted reports whether the request was terminated before completion.
func (r *Request) Aborted() bool { return r.state == StateAborted }

// Finished reports completion.
func (r *Request) Finished() bool { return r.state == StateFinished }

// HasFirstToken reports whether TTFT is defined yet.
func (r *Request) HasFirstToken() bool { return r.hasFirstToken }

// TTFT returns the time-to-first-token; it panics before the first token
// exists.
func (r *Request) TTFT() time.Duration {
	if !r.hasFirstToken {
		panic(fmt.Sprintf("request %d: TTFT before first token", r.ID))
	}
	return r.FirstToken - r.Arrival
}

// TPOT returns the mean time-per-output-token after the first. Requests
// with a single output token have no inter-token gaps and report zero.
func (r *Request) TPOT() time.Duration {
	if !r.Finished() {
		panic(fmt.Sprintf("request %d: TPOT before finish", r.ID))
	}
	if r.OutputLen <= 1 {
		return 0
	}
	return (r.Finish - r.FirstToken) / time.Duration(r.OutputLen-1)
}

// E2E returns the end-to-end latency. It panics before completion.
func (r *Request) E2E() time.Duration {
	if !r.Finished() {
		panic(fmt.Sprintf("request %d: E2E before finish", r.ID))
	}
	return r.Finish - r.Arrival
}

// TotalTokens returns prompt plus generated tokens (throughput accounting).
func (r *Request) TotalTokens() int { return r.PromptLen + r.generated }

// String implements fmt.Stringer.
func (r *Request) String() string {
	return fmt.Sprintf("req%d[%s p=%d/%d g=%d/%d]",
		r.ID, r.state, r.prefillDone, r.prefillTarget, r.generated, r.OutputLen)
}

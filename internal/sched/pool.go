// Package sched implements iteration-level micro-batch scheduling for LLM
// serving: the shared request pool (waiting/prefilling/decoding queues plus
// the paged KV cache), the Sarathi-Serve baseline scheduler (fixed token
// budget, decode-first then chunked prefill) and the gLLM Token Throttling
// scheduler (independent, feedback-driven prefill and decode budgets).
package sched

import (
	"fmt"
	"sync/atomic"
	"time"

	"gllm/internal/core"
	"gllm/internal/gpu"
	"gllm/internal/kvcache"
	"gllm/internal/request"
)

// batchEpoch issues globally-unique stamps for request.SchedMark, the
// allocation-free replacement for the per-call batch-membership maps the
// batch walks used to make. Globally monotone (one counter across every
// pool) so a request migrating between pools — disaggregation adopts
// decoding requests from other replicas — can never carry a stale mark that
// collides with another pool's current epoch. The partitioning schedulers
// draw their request.SchedStamp values from the same counter, for the same
// reason: a stamp left by one scheduler never reads as another's.
var batchEpoch atomic.Uint64

// Pool is the serving state every scheduler reads and mutates: the prefill
// FIFO, the decoding set and the KV cache. It is owned by a single driver
// (event loop or goroutine); it is not safe for concurrent use.
type Pool struct {
	KV    *kvcache.Manager
	Depth int // pipeline depth (#PP_depth)
	// EnablePrefixCache turns on cross-request KV reuse for requests that
	// declare a PrefixGroup (the paper integrates prefix caching, §3.4, but
	// disables it in the evaluation for fair baseline comparison — so it
	// defaults off here too).
	EnablePrefixCache bool
	// AllowPipelinedChunks enables chunked pipeline parallelism (CPP,
	// Mooncake-style intra-request parallelism the paper also integrates):
	// a request's next prompt chunk may be scheduled while earlier chunks
	// are still in flight, as long as each chunk rides a later micro-batch
	// than its predecessor (stage FIFO order then guarantees chunk c's KV
	// is written at every stage before chunk c+1 arrives there). At most
	// one chunk per request per micro-batch, and at most Depth chunks in
	// flight.
	AllowPipelinedChunks bool

	prefillQ []*request.Request // waiting or mid-prefill, FIFO; preempted at front
	decoding []*request.Request // decoding, in prefill-completion order

	// waitingPrefill is #WP, Σ RemainingPrefill over prefillQ, maintained at
	// every site that changes either side of that sum (Add, ScheduleChunk,
	// a prefix attach, evict, preempt, Abort) so the throttle and the
	// driver's gauges read it in O(1) instead of rescanning a FIFO that is
	// thousands deep under load. internal/invariant re-derives the sum at
	// every batch boundary.
	waitingPrefill int

	// watermark is the minimum number of KV blocks prefill admission must
	// leave free (vLLM's watermark). Without it, prefill can fill the very
	// last block and a lone block-aligned decoder would self-preempt and
	// recompute forever without producing a token.
	watermark   int
	preemptions int

	// queueScratch is the reusable snapshot buffer the batch walks copy
	// the queue they are walking into just before a preemption mutates it
	// in place; valid only within one build call. Capacity is retained so
	// steady-state scheduling never allocates.
	queueScratch []*request.Request
	// finished is Complete's reusable result buffer.
	finished []*request.Request
	// freeBatches recycles retired batches handed back via PutBatch.
	freeBatches []*Batch
}

// NewPool creates a pool over the given KV manager for a pipeline of the
// given depth.
func NewPool(kv *kvcache.Manager, depth int) *Pool {
	if kv == nil {
		panic("sched: nil KV manager")
	}
	if depth < 1 {
		panic(fmt.Sprintf("sched: pipeline depth %d", depth))
	}
	wm := kv.TotalBlocks() / 100
	if wm < 1 {
		wm = 1
	}
	return &Pool{KV: kv, Depth: depth, watermark: wm}
}

// Add admits an arriving request to the prefill queue.
func (p *Pool) Add(r *request.Request) {
	if r.State() != request.StateWaiting {
		panic(fmt.Sprintf("sched: adding %v in state %s", r, r.State()))
	}
	p.prefillQ = append(p.prefillQ, r)
	p.waitingPrefill += r.RemainingPrefill()
}

// WaitingPrefillTokens returns #WP: remaining (unscheduled) prefill tokens
// across the queue. O(1): the pool maintains the sum incrementally.
func (p *Pool) WaitingPrefillTokens() int { return p.waitingPrefill }

// ScheduleChunk marks n prefill tokens of a queued request as in flight.
// Schedulers that assemble batches themselves must go through it rather
// than r.ScheduleChunk, or #WP drifts from the queue it summarizes.
func (p *Pool) ScheduleChunk(r *request.Request, n int, now time.Duration) {
	r.ScheduleChunk(n, now)
	p.waitingPrefill -= n
}

// RunningDecode returns #RD: the number of sequences in the decode phase
// (busy or not).
func (p *Pool) RunningDecode() int { return len(p.decoding) }

// PrefillQueueLen returns the number of requests waiting for (more) prefill.
func (p *Pool) PrefillQueueLen() int { return len(p.prefillQ) }

// Decoding returns the decoding set (shared slice; treat as read-only).
func (p *Pool) Decoding() []*request.Request { return p.decoding }

// PrefillQueue returns the prefill FIFO (shared slice; treat as read-only).
func (p *Pool) PrefillQueue() []*request.Request { return p.prefillQ }

// kvSeq maps a request to its KV-cache sequence ID.
func kvSeq(r *request.Request) kvcache.SeqID { return kvcache.SeqID(r.ID) }

// freeKV releases r's KV residency in this pool and drops the handle that
// pointed into it.
func (p *Pool) freeKV(r *request.Request) {
	p.KV.Free(kvSeq(r))
	r.KVSeq = kvcache.Handle{}
}

// GetBatch returns an empty batch, reusing one recycled via PutBatch when
// available (slice capacity retained, so a steady-state driver schedules
// without allocating). Callers that never recycle just get fresh batches.
func (p *Pool) GetBatch() *Batch {
	if n := len(p.freeBatches); n > 0 {
		b := p.freeBatches[n-1]
		p.freeBatches[n-1] = nil
		p.freeBatches = p.freeBatches[:n-1]
		return b
	}
	return &Batch{}
}

// PutBatch hands a retired batch back for reuse by later Schedule calls.
// The caller must not touch the batch afterwards. Request pointers are
// cleared so a recycled batch keeps no finished request alive.
func (p *Pool) PutBatch(b *Batch) {
	for i := range b.Chunks {
		b.Chunks[i] = Chunk{}
	}
	for i := range b.Decodes {
		b.Decodes[i] = nil
	}
	b.Chunks = b.Chunks[:0]
	b.Decodes = b.Decodes[:0]
	p.freeBatches = append(p.freeBatches, b)
}

// Preemptions returns the cumulative preemption count.
func (p *Pool) Preemptions() int { return p.preemptions }

// Idle reports whether no request is resident in the pool at all.
func (p *Pool) Idle() bool { return len(p.prefillQ) == 0 && len(p.decoding) == 0 }

// CoreState snapshots the pool as the Token Throttling policy input.
func (p *Pool) CoreState() core.State {
	return core.State{
		WaitingPrefillTokens: p.WaitingPrefillTokens(),
		KVFreeRate:           p.KV.FreeRate(),
		RunningDecode:        p.RunningDecode(),
		PipelineDepth:        p.Depth,
	}
}

// younger reports whether a arrived after b (ties broken by ID). Younger
// requests have lower priority and are preferred eviction victims.
func younger(a, b *request.Request) bool {
	if a.Arrival != b.Arrival {
		return a.Arrival > b.Arrival
	}
	return a.ID > b.ID
}

// maxPrefillAllocatableFor returns the largest number of new prefill tokens
// the KV cache can accept for the sequence right now. Fresh admissions
// (sequences holding no blocks yet) must leave the watermark free so
// running requests can always progress; continuations may use every free
// block (vLLM semantics: the watermark gates admission only).
func (p *Pool) maxPrefillAllocatableFor(id kvcache.SeqID) int {
	bs := p.KV.BlockSize()
	cur := p.KV.TokensOf(id)
	slack := 0
	if cur%bs != 0 {
		slack = bs - cur%bs
	}
	free := p.KV.FreeBlocks()
	if cur == 0 {
		free -= p.watermark
		if free < 0 {
			free = 0
		}
	}
	return slack + free*bs
}

// inFlightSeqsEstimate approximates sequences already running in other
// micro-batches (busy decodes plus requests with chunks in flight).
func (p *Pool) inFlightSeqsEstimate() int {
	n := 0
	for _, r := range p.decoding {
		if r.DecodeBusy() {
			n++
		}
	}
	for _, r := range p.prefillQ {
		if r.InFlightChunks() > 0 {
			n++
		}
	}
	return n
}

// stalled reports the one state in which no KV block frees on its own:
// nothing decodes, no chunk or decode step is in flight, and b, the batch
// being built, is still empty. No retirement is coming to change the pool,
// so an empty batch returned here is one its engine never schedules past.
func (p *Pool) stalled(b *Batch) bool {
	return len(p.decoding) == 0 && b.Empty() && p.inFlightSeqsEstimate() == 0
}

// buildPrefill is the one prefill walk. It assembles chunks FIFO up to
// budget tokens over the requests of queue — p.prefillQ or a prefix of it —
// that allow accepts (nil accepts all), skipping requests with an in-flight
// chunk (sequential chunk dependency) and shrinking the final chunk to what
// the KV cache can hold; with whole set it admits only prompts that fit the
// budget and the cache entire (the pre-Sarathi policies). KV slots are
// allocated here, before execution, exactly as the paper's Figure 6
// describes.
func (p *Pool) buildPrefill(b *Batch, queue []*request.Request, budget int, now time.Duration, allow func(*request.Request) bool, whole bool) {
	// Batch membership via epoch-stamped scratch marks: requests whose
	// SchedMark equals this build's epoch already carry a chunk in b.
	epoch := batchEpoch.Add(1)
	for _, c := range b.Chunks {
		c.Req.SchedMark = epoch
	}
	// Preempting a decoding victim (below) shifts p.prefillQ in place; the
	// walk continues over a copy taken just before the first such shift, so
	// it sees the admission order this call started with.
	snapped := false
	for i := 0; i < len(queue); i++ {
		r := queue[i]
		if budget <= 0 {
			return
		}
		if r.RemainingPrefill() == 0 || r.SchedMark == epoch {
			continue
		}
		if r.InFlightChunks() > 0 {
			// Sequential chunk dependency — unless CPP pipelines chunks one
			// micro-batch apart (bounded by the pipeline depth).
			if !p.AllowPipelinedChunks || r.InFlightChunks() >= p.Depth {
				continue
			}
		}
		// The filter sees only requests that could take a chunk, so Orca's
		// counting filter spends its admission slots on exactly those.
		if allow != nil && !allow(r) {
			continue
		}
		if r.State() != request.StateWaiting && r.State() != request.StatePrefilling {
			continue // evicted-and-rescheduled edge cases
		}
		id := kvcache.SeqID(r.ID)
		if p.EnablePrefixCache && r.PrefixGroup != 0 && r.State() == request.StateWaiting &&
			r.PrefillDone() == 0 && p.KV.TokensOf(id) == 0 {
			maxShare := r.SharedPrefixLen
			if t := r.PrefillTarget() - 1; maxShare > t {
				maxShare = t
			}
			if attached := p.KV.AttachPrefix(id, r.PrefixGroup, maxShare); attached > 0 {
				r.SkipPrefill(attached)
				p.waitingPrefill -= attached
			}
		}
		chunk := r.RemainingPrefill()
		if chunk > budget {
			if whole {
				continue
			}
			chunk = budget
		}
		fit := p.maxPrefillAllocatableFor(id)
		if fit == 0 && p.KV.TokensOf(id) > 0 {
			// A continuation that cannot advance holds blocks hostage;
			// evict younger holders until it can move (or none remain).
			for fit == 0 {
				victim := p.youngestHolderYoungerThan(r)
				if victim == nil {
					break
				}
				if !snapped && victim.State() == request.StateDecoding {
					p.queueScratch = append(p.queueScratch[:0], queue...)
					queue, snapped = p.queueScratch, true
				}
				p.evict(victim)
				fit = p.maxPrefillAllocatableFor(id)
			}
		}
		if fit == 0 && p.stalled(b) {
			// No block frees on its own from here, so a request that cannot
			// move must not hold the walk up. A blocked continuation gives
			// its blocks back and restarts later. A fresh admission may take
			// the watermark's blocks, which keep running requests moving
			// while none is running, and yields when there are none. Either
			// way the walk goes on to the older holders behind, which can
			// evict younger ones.
			if r.State() == request.StatePrefilling {
				p.evict(r)
				continue
			}
			if fit = p.KV.FreeBlocks() * p.KV.BlockSize(); fit == 0 {
				continue
			}
		}
		if chunk > fit {
			if whole {
				continue
			}
			chunk = fit
		}
		if chunk <= 0 {
			// KV exhausted: preserve FCFS rather than letting younger
			// requests overtake the blocked head.
			return
		}
		if err := p.KV.Allocate(id, chunk); err != nil {
			panic(fmt.Sprintf("sched: prefill alloc after fit check: %v", err))
		}
		// The chunk attends over everything committed plus earlier in-flight
		// chunks (identical when pipelining is off: nothing is in flight).
		ctxStart := r.PrefillDone() + r.InFlightPrefill()
		p.ScheduleChunk(r, chunk, now)
		b.Chunks = append(b.Chunks, Chunk{Req: r, Tokens: chunk, CtxStart: ctxStart})
		r.SchedMark = epoch
		budget -= chunk
	}
}

// buildDecode is the one decode walk. It schedules available (non-busy)
// decoding sequences that allow accepts (nil accepts all) in FIFO order,
// reserving one KV slot each, until limit sequences are scheduled. A
// reservation that does not fit preempts younger KV holders; if none exists
// the sequence preempts itself.
//
// The common case — the token fits, nobody is preempted — walks p.decoding
// itself and reaches each sequence through the request's handle (r.KVSeq,
// set by the first append after every prefill); only when a reservation has
// to preempt (which removes entries from p.decoding in place) does the walk
// switch to a snapshot, taken before the first mutation and therefore
// identical to what it was iterating.
func (p *Pool) buildDecode(b *Batch, limit int, allow func(*request.Request) bool) {
	list, snapped := p.decoding, false
	for i, n := 0, 0; i < len(list) && n < limit; i++ {
		r := list[i]
		if r.State() != request.StateDecoding || r.DecodeBusy() || allow != nil && !allow(r) {
			continue
		}
		if !p.KV.TryAppend(&r.KVSeq, kvSeq(r), 1) {
			if !snapped {
				p.queueScratch = append(p.queueScratch[:0], list...)
				list, snapped = p.queueScratch, true
			}
			if !p.ensureDecodeSlot(r) {
				continue // r preempted itself
			}
		}
		r.ScheduleDecode()
		b.Decodes = append(b.Decodes, r)
		n++
	}
}

// ensureDecodeSlot is buildDecode's slow path: the cache cannot take one
// more token of r, so younger KV holders are preempted until it can — or r
// itself is, when it is the youngest.
func (p *Pool) ensureDecodeSlot(r *request.Request) bool {
	id := kvSeq(r)
	for !p.KV.TryAppend(&r.KVSeq, id, 1) {
		victim := p.youngestHolderYoungerThan(r)
		if victim == nil {
			// r is the youngest holder: preempt r itself (recompute later).
			p.preempt(r)
			return false
		}
		p.evict(victim)
	}
	return true
}

// youngestHolderYoungerThan returns the youngest evictable request that is
// younger than r and holds KV blocks: a decoding sequence that is not busy,
// or a mid-prefill sequence with no chunk in flight. It returns nil when r
// is the youngest holder (or no holder is evictable).
func (p *Pool) youngestHolderYoungerThan(r *request.Request) *request.Request {
	var best *request.Request
	consider := func(c *request.Request) {
		if c == r || !younger(c, r) {
			return
		}
		if p.KV.TokensOf(kvcache.SeqID(c.ID)) == 0 {
			return
		}
		switch c.State() {
		case request.StateDecoding:
			if c.DecodeBusy() {
				return
			}
		case request.StatePrefilling:
			if c.InFlightPrefill() > 0 {
				return
			}
		default:
			return
		}
		if best == nil || younger(c, best) {
			best = c
		}
	}
	for _, c := range p.decoding {
		consider(c)
	}
	for _, c := range p.prefillQ {
		consider(c)
	}
	return best
}

// evict removes a victim's KV residency. Decoding victims are preempted to
// the front of the prefill queue for full recompute (vLLM recompute
// semantics); mid-prefill victims restart their prefill from zero in place.
func (p *Pool) evict(r *request.Request) {
	switch r.State() {
	case request.StateDecoding:
		p.preempt(r)
	case request.StatePrefilling:
		p.freeKV(r)
		p.waitingPrefill += r.PrefillDone() // nothing in flight: all of it waits again
		r.ResetPrefill()
		p.preemptions++
	default:
		panic(fmt.Sprintf("sched: evicting %v in state %s", r, r.State()))
	}
}

// preempt evicts a decoding sequence: its KV is freed and it rejoins the
// FRONT of the prefill queue for full recompute (vLLM recompute semantics).
func (p *Pool) preempt(r *request.Request) {
	p.freeKV(r)
	r.Preempt()
	p.removeDecoding(r)
	p.prefillQ = append(p.prefillQ, nil)
	copy(p.prefillQ[1:], p.prefillQ)
	p.prefillQ[0] = r
	p.waitingPrefill += r.RemainingPrefill()
	p.preemptions++
}

func (p *Pool) removeDecoding(r *request.Request) {
	for i, x := range p.decoding {
		if x == r {
			p.decoding = append(p.decoding[:i], p.decoding[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("sched: %v not in decoding set", r))
}

func (p *Pool) removePrefill(r *request.Request) {
	for i, x := range p.prefillQ {
		if x == r {
			p.prefillQ = append(p.prefillQ[:i], p.prefillQ[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("sched: %v not in prefill queue", r))
}

// Complete commits a finished micro-batch at virtual time now: chunks are
// committed (possibly transitioning requests to decode or finishing
// single-token outputs), decode steps emit their tokens, and finished
// requests release their KV. It returns the requests that finished in this
// batch, in batch order; the slice is pool-owned scratch, valid until the
// next Complete.
func (p *Pool) Complete(b *Batch, now time.Duration) []*request.Request {
	clear(p.finished) // keep no finished request of the previous batch alive
	finished := p.finished[:0]
	for _, c := range b.Chunks {
		c.Req.CompleteChunk(now)
		switch c.Req.State() {
		case request.StateDecoding:
			p.registerPrefix(c.Req)
			p.removePrefill(c.Req)
			p.decoding = append(p.decoding, c.Req)
		case request.StateFinished:
			p.registerPrefix(c.Req)
			p.removePrefill(c.Req)
			p.freeKV(c.Req)
			finished = append(finished, c.Req)
		}
	}
	for _, r := range b.Decodes {
		if r.CompleteDecode(now) {
			p.registerPrefix(r)
			p.removeDecoding(r)
			p.freeKV(r)
			finished = append(finished, r)
		}
	}
	p.finished = finished
	return finished
}

// Abort removes a resident request from the pool in any state — waiting,
// mid-prefill, or decoding — releasing its KV blocks and transitioning it
// to the aborted terminal state. The caller (the runtime driver) must only
// abort quiescent requests: aborting one with an in-flight chunk or decode
// step would free KV an executing micro-batch still references, so that
// panics, as does aborting a request not resident in the pool.
func (p *Pool) Abort(r *request.Request) {
	switch r.State() {
	case request.StateWaiting, request.StatePrefilling:
		if r.InFlightChunks() > 0 {
			panic(fmt.Sprintf("sched: aborting %v with %d chunks in flight", r, r.InFlightChunks()))
		}
		p.removePrefill(r)
		p.waitingPrefill -= r.RemainingPrefill()
	case request.StateDecoding:
		if r.DecodeBusy() {
			panic(fmt.Sprintf("sched: aborting busy %v", r))
		}
		p.removeDecoding(r)
	default:
		panic(fmt.Sprintf("sched: aborting %v in state %s", r, r.State()))
	}
	p.freeKV(r)
	r.Abort()
}

// ReleaseDecoding removes a decoding request from this pool WITHOUT
// freeing its KV or touching its state — the caller is migrating it to
// another replica (prefill/decode disaggregation). The caller must free
// this pool's KV for the sequence separately once its transfer completes;
// the request leaves without its handle into that KV.
func (p *Pool) ReleaseDecoding(r *request.Request) {
	if r.State() != request.StateDecoding || r.DecodeBusy() {
		panic(fmt.Sprintf("sched: releasing %v in state %s busy %v", r, r.State(), r.DecodeBusy()))
	}
	p.removeDecoding(r)
	r.KVSeq = kvcache.Handle{}
}

// AdoptDecoding admits a decoding request migrated from another replica.
// Its context KV must already be allocated in THIS pool's cache by the
// caller (the transfer destination).
func (p *Pool) AdoptDecoding(r *request.Request) {
	if r.State() != request.StateDecoding || r.DecodeBusy() {
		panic(fmt.Sprintf("sched: adopting %v in state %s busy %v", r, r.State(), r.DecodeBusy()))
	}
	if p.KV.TokensOf(kvcache.SeqID(r.ID)) == 0 {
		panic(fmt.Sprintf("sched: adopting %v without KV residency", r))
	}
	r.KVSeq = kvcache.Handle{} // whatever it named is not in this pool's cache
	p.decoding = append(p.decoding, r)
}

// registerPrefix publishes a request's computed KV (all resident full
// blocks: prompt, and generated tokens at completion) into its group's
// prefix cache — a conversation's next turn shares exactly that stream.
// No-op unless enabled and declared.
func (p *Pool) registerPrefix(r *request.Request) {
	if !p.EnablePrefixCache || r.PrefixGroup == 0 {
		return
	}
	id := kvcache.SeqID(r.ID)
	p.KV.RegisterPrefix(id, r.PrefixGroup, p.KV.TokensOf(id))
}

// Chunk is one scheduled prefill chunk.
type Chunk struct {
	Req      *request.Request
	Tokens   int
	CtxStart int // context offset of the chunk's first token
}

// Batch is one scheduled micro-batch.
type Batch struct {
	Chunks  []Chunk
	Decodes []*request.Request
}

// Empty reports whether the batch holds no work.
func (b *Batch) Empty() bool { return len(b.Chunks) == 0 && len(b.Decodes) == 0 }

// PrefillTokens returns the batched prefill token count.
func (b *Batch) PrefillTokens() int {
	n := 0
	for _, c := range b.Chunks {
		n += c.Tokens
	}
	return n
}

// DecodeTokens returns the batched decode token count.
func (b *Batch) DecodeTokens() int { return len(b.Decodes) }

// Tokens returns the total batched token count.
func (b *Batch) Tokens() int { return b.PrefillTokens() + b.DecodeTokens() }

// Shape converts the batch into the cost model's aggregate description.
func (b *Batch) Shape() gpu.BatchShape {
	var s gpu.BatchShape
	for _, c := range b.Chunks {
		s.PrefillTokens += c.Tokens
		s.PrefillCtxSum += gpu.PrefillChunkCtxSum(c.CtxStart, c.Tokens)
	}
	for _, r := range b.Decodes {
		s.DecodeTokens++
		s.DecodeCtxSum += float64(r.ContextLen())
	}
	return s
}

// Scheduler assembles the next micro-batch from the pool.
type Scheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Schedule builds (and reserves resources for) the next micro-batch.
	// It may return an empty batch when nothing can run.
	Schedule(p *Pool, now time.Duration) *Batch
}

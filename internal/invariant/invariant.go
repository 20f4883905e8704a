package invariant

import (
	"fmt"
	"time"

	"gllm/internal/kvcache"
	"gllm/internal/request"
	"gllm/internal/sched"
)

// Invariant names (see doc.go for the catalogue).
const (
	InvTokenConservation  = "token-conservation"
	InvDecodeConservation = "decode-conservation"
	InvBatchBudget        = "batch-budget"
	InvKVResidency        = "kv-residency"
	InvKVOwnership        = "kv-ownership"
	InvKVInternal         = "kv-internal"
	InvKVLeak             = "kv-leak"
	InvPrefillFIFO        = "prefill-fifo"
	InvNoStarvation       = "no-starvation"
	InvWaitingPrefill     = "waiting-prefill"
	InvMonotonicTime      = "monotonic-time"
)

// Violation is one observed invariant breach. It implements error so an
// engine run aborts with the breach as its failure cause.
type Violation struct {
	Invariant string
	Time      time.Duration
	Detail    string
}

// Error implements error.
func (v Violation) Error() string {
	return fmt.Sprintf("invariant %s violated at %v: %s", v.Invariant, v.Time, v.Detail)
}

const (
	// starveRounds bounds how many consecutive non-empty batches a resident
	// request may be passed over entirely before no-starvation fires. Only
	// enforced for schedulers declaring sched.FIFOPrefill.
	starveRounds = 10000
	// maxViolations caps recorded violations per checker.
	maxViolations = 16
)

// reqTrack is the checker's shadow model of one request's accounting.
type reqTrack struct {
	r         *request.Request
	target    int   // current prefill target
	committed int   // prefill tokens committed (observed completions)
	inflight  []int // scheduled-but-uncommitted chunk sizes, FIFO
	preempts  int   // request.Preemptions at last sync
	hadFT     bool  // had its first token when the current prefill pass began
	inDecode  bool
	genBase   int // Generated() on decode entry; -1 until then
	busy      bool
	decodes   int // decode completions observed
	kvOffset  int // +1 when decode KV holds the full context (resume/adopt)
	starve    int
}

// Checker audits one scheduler pool against the invariant catalogue. It
// implements engine.BatchObserver (and engine.SeqObserver) structurally:
// drive it with BeforeSchedule / AfterSchedule / AfterComplete around every
// scheduling cycle and Final at the end of the run. Violations accumulate;
// Err returns the first one.
type Checker struct {
	pool    *sched.Pool
	bounded sched.TokenBounded
	fifo    bool

	cycles     int64
	violations []Violation
	dropped    int

	lastNow     time.Duration
	havePre     bool
	preBound    int
	preQueue    []*request.Request
	prePreempts []int // request.Preemptions of each preQueue entry
	// preFull: nothing decoding, nothing in flight and every KV block held
	// when the scheduler was called (a stalled pool, DESIGN.md §8).
	preFull bool

	reqs     map[int64]*reqTrack
	external map[kvcache.SeqID]bool
}

// New builds a checker for the pool as driven by scheduler s. The scheduler
// is only inspected for its optional sched.TokenBounded and
// sched.FIFOPrefill declarations; the pool is the audited object.
func New(pool *sched.Pool, s sched.Scheduler) *Checker {
	c := &Checker{
		pool:     pool,
		reqs:     make(map[int64]*reqTrack),
		external: make(map[kvcache.SeqID]bool),
	}
	if b, ok := s.(sched.TokenBounded); ok {
		c.bounded = b
	}
	if f, ok := s.(sched.FIFOPrefill); ok && f.PrefillFIFO() {
		c.fifo = true
	}
	return c
}

// Err returns the first recorded violation, or nil.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return c.violations[0]
}

// Violations returns a copy of the recorded violations.
func (c *Checker) Violations() []Violation {
	return append([]Violation(nil), c.violations...)
}

// Cycles returns how many schedule/complete hook invocations were audited.
func (c *Checker) Cycles() int64 { return c.cycles }

func (c *Checker) violate(name string, now time.Duration, format string, args ...any) {
	if len(c.violations) >= maxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, Violation{
		Invariant: name,
		Time:      now,
		Detail:    fmt.Sprintf(format, args...),
	})
}

func (c *Checker) observeTime(now time.Duration) {
	if now < c.lastNow {
		c.violate(InvMonotonicTime, now, "observed time %v after %v", now, c.lastNow)
		return
	}
	c.lastNow = now
}

// track returns (registering or resyncing as needed) the shadow state of r.
func (c *Checker) track(r *request.Request, now time.Duration) *reqTrack {
	tr, ok := c.reqs[r.ID]
	if !ok {
		tr = &reqTrack{
			r:         r,
			target:    r.PrefillTarget(),
			committed: r.PrefillDone(),
			preempts:  r.Preemptions,
			hadFT:     r.HasFirstToken(),
			genBase:   -1,
		}
		if r.State() == request.StateDecoding {
			// First seen mid-decode: an adoption from another pool
			// (disaggregated migration). Calibrate against its actual KV
			// residency; anything but the context (±  the busy slot) is wrong.
			tr.inDecode = true
			tr.busy = r.DecodeBusy()
			tr.genBase = r.Generated()
			busy := 0
			if tr.busy {
				busy = 1
			}
			off := c.pool.KV.TokensOf(kvcache.SeqID(r.ID)) - (r.ContextLen() - 1 + busy)
			if off < 0 || off > 1 {
				c.violate(InvKVResidency, now, "adopted %v holds %d KV tokens, context %d",
					r, c.pool.KV.TokensOf(kvcache.SeqID(r.ID)), r.ContextLen())
				off = 1
			}
			tr.kvOffset = off
		}
		c.reqs[r.ID] = tr
		return tr
	}
	if r.Preemptions != tr.preempts {
		// Preempted (decode recompute) or reset (mid-prefill eviction) since
		// last observed: the prefill pass restarts from zero.
		if len(tr.inflight) > 0 {
			c.violate(InvTokenConservation, now, "%v preempted with %d chunks in flight", r, len(tr.inflight))
			tr.inflight = tr.inflight[:0]
		}
		if tr.busy {
			c.violate(InvDecodeConservation, now, "%v preempted while a decode step was in flight", r)
			tr.busy = false
		}
		tr.preempts = r.Preemptions
		tr.target = r.PrefillTarget()
		tr.committed = 0
		tr.hadFT = r.HasFirstToken()
		tr.inDecode = false
		tr.kvOffset = 0
	}
	return tr
}

// sync registers newly resident requests and absorbs preemptions.
func (c *Checker) sync(now time.Duration) {
	for _, r := range c.pool.PrefillQueue() {
		c.track(r, now)
	}
	for _, r := range c.pool.Decoding() {
		c.track(r, now)
	}
}

// BeforeSchedule snapshots the pool state a scheduler is about to see: the
// throttling inputs (for batch-budget) and the prefill queue (for
// prefill-fifo).
func (c *Checker) BeforeSchedule(now time.Duration) {
	c.observeTime(now)
	c.sync(now)
	c.checkWaitingPrefill(now)
	c.preBound = -1
	if c.bounded != nil {
		c.preBound = c.bounded.BatchTokenBound(c.pool.CoreState())
	}
	c.preQueue = append(c.preQueue[:0], c.pool.PrefillQueue()...)
	c.prePreempts = c.prePreempts[:0]
	c.preFull = c.pool.RunningDecode() == 0 && c.pool.KV.FreeBlocks() == 0
	for _, r := range c.preQueue {
		c.prePreempts = append(c.prePreempts, r.Preemptions)
		c.preFull = c.preFull && r.InFlightChunks() == 0
	}
	c.havePre = true
}

// AfterSchedule audits the batch the scheduler just built.
func (c *Checker) AfterSchedule(b *sched.Batch, now time.Duration) {
	c.cycles++
	c.observeTime(now)
	c.sync(now)

	if c.havePre && c.preBound >= 0 && b.Tokens() > c.preBound {
		c.violate(InvBatchBudget, now, "batch of %d tokens (%d prefill + %d decode) exceeds bound %d",
			b.Tokens(), b.PrefillTokens(), b.DecodeTokens(), c.preBound)
	}

	served := make(map[int64]bool, len(b.Chunks)+len(b.Decodes))
	for _, ch := range b.Chunks {
		r := ch.Req
		tr := c.track(r, now)
		if served[r.ID] {
			c.violate(InvTokenConservation, now, "%v scheduled two chunks in one batch", r)
			continue
		}
		served[r.ID] = true
		if ch.Tokens <= 0 {
			c.violate(InvTokenConservation, now, "%v scheduled an empty chunk", r)
			continue
		}
		inflight := 0
		for _, n := range tr.inflight {
			inflight += n
		}
		want := tr.committed + inflight
		if ch.CtxStart != want {
			if c.pool.EnablePrefixCache && tr.committed == 0 && inflight == 0 &&
				ch.CtxStart > 0 && ch.CtxStart == r.PrefillDone() {
				// Prefix-cache hit: CtxStart tokens were attached, not
				// computed. Credit them as committed.
				tr.committed = ch.CtxStart
			} else {
				c.violate(InvTokenConservation, now, "%v chunk starts at context %d, want %d (gap or overlap)",
					r, ch.CtxStart, want)
				tr.committed = ch.CtxStart - inflight
			}
		}
		if ch.CtxStart+ch.Tokens > tr.target {
			c.violate(InvTokenConservation, now, "%v chunk [%d,%d) exceeds prefill target %d",
				r, ch.CtxStart, ch.CtxStart+ch.Tokens, tr.target)
		}
		tr.inflight = append(tr.inflight, ch.Tokens)
	}

	for _, r := range b.Decodes {
		tr := c.track(r, now)
		if tr.busy {
			c.violate(InvDecodeConservation, now, "%v scheduled two overlapping decode steps", r)
			continue
		}
		if !tr.inDecode {
			c.violate(InvDecodeConservation, now, "%v scheduled a decode step before completing prefill", r)
		}
		tr.busy = true
		served[r.ID] = true
	}

	if c.fifo && c.havePre {
		c.checkFIFO(b, served, now)
	}
	if c.fifo && !b.Empty() {
		c.checkStarvation(served, now)
	}
	c.checkKV(now)
	c.checkWaitingPrefill(now)
	c.havePre = false
}

// checkFIFO asserts no request in the pre-schedule prefill queue received a
// chunk while an earlier, still-eligible request went unserved. Requests
// preempted during this very Schedule call are prepended to the live queue
// and so never appear in the snapshot — exactly right, since they were not
// schedulable when admission order was fixed. Two stall-rule exemptions
// (DESIGN.md §8): a queued request evicted during the call (a stalled
// continuation that gave its blocks back so the requests behind it could
// move) is not eligible, and neither is one holding no KV when the call found
// the pool stalled with every block held (it had nothing to start on).
func (c *Checker) checkFIFO(b *sched.Batch, served map[int64]bool, now time.Duration) {
	blocked := int64(-1)
	for i, r := range c.preQueue {
		if chunkServed(b, r) {
			if blocked >= 0 {
				c.violate(InvPrefillFIFO, now, "%v served while earlier eligible request %d went unserved", r, blocked)
				return
			}
			continue
		}
		if blocked >= 0 || r.Preemptions != c.prePreempts[i] {
			continue
		}
		if c.preFull && c.pool.KV.TokensOf(kvcache.SeqID(r.ID)) == 0 {
			continue
		}
		if st := r.State(); st != request.StateWaiting && st != request.StatePrefilling {
			continue
		}
		if r.RemainingPrefill() <= 0 {
			continue
		}
		if r.InFlightChunks() > 0 &&
			(!c.pool.AllowPipelinedChunks || r.InFlightChunks() >= c.pool.Depth) {
			continue
		}
		blocked = r.ID
	}
}

func chunkServed(b *sched.Batch, r *request.Request) bool {
	for _, ch := range b.Chunks {
		if ch.Req == r {
			return true
		}
	}
	return false
}

// checkStarvation counts consecutive non-empty batches in which a resident
// request made no progress of any kind.
func (c *Checker) checkStarvation(served map[int64]bool, now time.Duration) {
	scan := func(r *request.Request) {
		tr := c.reqs[r.ID]
		if tr == nil {
			return
		}
		if served[r.ID] || r.DecodeBusy() || r.InFlightChunks() > 0 {
			tr.starve = 0
			return
		}
		tr.starve++
		if tr.starve > starveRounds {
			c.violate(InvNoStarvation, now, "%v made no progress for %d consecutive batches", r, tr.starve)
			tr.starve = 0
		}
	}
	for _, r := range c.pool.PrefillQueue() {
		scan(r)
	}
	for _, r := range c.pool.Decoding() {
		scan(r)
	}
}

// expectedKV returns the KV tokens a pool-resident request must hold.
func (c *Checker) expectedKV(r *request.Request, tr *reqTrack) int {
	switch r.State() {
	case request.StateWaiting:
		// Zero, or an attached prefix that has not started computing.
		return r.PrefillDone()
	case request.StatePrefilling:
		return r.PrefillDone() + r.InFlightPrefill()
	case request.StateDecoding:
		busy := 0
		if r.DecodeBusy() {
			busy = 1
		}
		return r.ContextLen() - 1 + busy + tr.kvOffset
	}
	return 0
}

// checkKV audits the pool's KV cache: internal consistency, block caps,
// per-request residency, and sequence ownership.
func (c *Checker) checkKV(now time.Duration) {
	kv := c.pool.KV
	if err := kv.Verify(); err != nil {
		c.violate(InvKVInternal, now, "Manager.Verify: %v", err)
	}
	if used := kv.UsedBlocks(); used < 0 || used > kv.TotalBlocks() {
		c.violate(InvKVInternal, now, "used blocks %d outside [0,%d]", used, kv.TotalBlocks())
	}
	owned := make(map[kvcache.SeqID]bool, len(c.reqs))
	audit := func(r *request.Request) {
		id := kvcache.SeqID(r.ID)
		owned[id] = true
		tr := c.reqs[r.ID]
		if tr == nil {
			return
		}
		if got, want := kv.TokensOf(id), c.expectedKV(r, tr); got != want {
			c.violate(InvKVResidency, now, "%v holds %d KV tokens, want %d", r, got, want)
		}
	}
	for _, r := range c.pool.PrefillQueue() {
		audit(r)
	}
	for _, r := range c.pool.Decoding() {
		audit(r)
	}
	for _, id := range kv.Sequences() {
		if !owned[id] && !c.external[id] {
			c.violate(InvKVOwnership, now, "sequence %d holds %d KV tokens but belongs to no pool request",
				id, kv.TokensOf(id))
		}
	}
}

// checkWaitingPrefill re-derives #WP from the prefill queue: the pool keeps
// it as an incrementally maintained counter, and the throttle's prefill
// budget (eq. 1–3) is only as right as that counter.
func (c *Checker) checkWaitingPrefill(now time.Duration) {
	want := 0
	for _, r := range c.pool.PrefillQueue() {
		want += r.RemainingPrefill()
	}
	if got := c.pool.WaitingPrefillTokens(); got != want {
		c.violate(InvWaitingPrefill, now, "pool reports #WP = %d, the prefill queue holds %d", got, want)
	}
}

// AfterComplete audits the commit of a retired batch: chunk and decode
// completions, lifecycle transitions, and finish-time conservation.
func (c *Checker) AfterComplete(b *sched.Batch, finished []*request.Request, now time.Duration) {
	c.cycles++
	c.observeTime(now)

	for _, ch := range b.Chunks {
		r := ch.Req
		tr := c.reqs[r.ID]
		if tr == nil {
			c.violate(InvTokenConservation, now, "%v completed a chunk but was never scheduled", r)
			continue
		}
		if len(tr.inflight) == 0 {
			c.violate(InvTokenConservation, now, "%v completed a chunk with none in flight", r)
			continue
		}
		if tr.inflight[0] != ch.Tokens {
			c.violate(InvTokenConservation, now, "%v completed a %d-token chunk, oldest in flight is %d",
				r, ch.Tokens, tr.inflight[0])
		}
		tr.committed += tr.inflight[0]
		tr.inflight = tr.inflight[1:]
		if tr.inDecode {
			continue
		}
		switch r.State() {
		case request.StateDecoding, request.StateFinished:
			if len(tr.inflight) > 0 {
				c.violate(InvTokenConservation, now, "%v entered decode with %d chunks still in flight",
					r, len(tr.inflight))
				tr.inflight = tr.inflight[:0]
			}
			if tr.committed != tr.target {
				c.violate(InvTokenConservation, now, "%v entered decode with %d/%d prefill tokens committed",
					r, tr.committed, tr.target)
			}
			tr.inDecode = true
			// A resumed prefill recomputes the full context including the
			// last generated token, so decode KV carries one extra slot.
			if tr.hadFT {
				tr.kvOffset = 1
			} else {
				tr.kvOffset = 0
			}
			if tr.genBase < 0 {
				tr.genBase = r.Generated()
			}
		}
	}

	for _, r := range b.Decodes {
		tr := c.reqs[r.ID]
		if tr == nil {
			c.violate(InvDecodeConservation, now, "%v completed a decode step but was never scheduled", r)
			continue
		}
		if !tr.busy {
			c.violate(InvDecodeConservation, now, "%v completed a decode step with none in flight", r)
			continue
		}
		tr.busy = false
		tr.decodes++
	}

	for _, r := range finished {
		tr := c.reqs[r.ID]
		if tr == nil {
			continue // already flagged above
		}
		if r.State() != request.StateFinished {
			c.violate(InvTokenConservation, now, "%v reported finished in state %s", r, r.State())
		}
		if r.Generated() != r.OutputLen {
			c.violate(InvDecodeConservation, now, "%v finished with %d/%d output tokens",
				r, r.Generated(), r.OutputLen)
		}
		if tr.genBase >= 0 && tr.decodes != r.OutputLen-tr.genBase {
			c.violate(InvDecodeConservation, now, "%v finished after %d decode completions, want %d",
				r, tr.decodes, r.OutputLen-tr.genBase)
		}
		if got := c.pool.KV.TokensOf(kvcache.SeqID(r.ID)); got != 0 && !c.external[kvcache.SeqID(r.ID)] {
			c.violate(InvKVLeak, now, "%v finished but still holds %d KV tokens", r, got)
		}
		delete(c.reqs, r.ID)
	}

	c.sync(now)
	c.checkKV(now)
	c.checkWaitingPrefill(now)
	c.prune()
}

// prune drops shadow state for requests that left the pool without
// finishing (released for migration to another replica).
func (c *Checker) prune() {
	if len(c.reqs) == 0 {
		return
	}
	present := make(map[int64]bool, len(c.reqs))
	for _, r := range c.pool.PrefillQueue() {
		present[r.ID] = true
	}
	for _, r := range c.pool.Decoding() {
		present[r.ID] = true
	}
	for id := range c.reqs {
		if !present[id] {
			delete(c.reqs, id)
		}
	}
}

// MarkExternal implements engine.SeqObserver: the sequence's KV blocks
// legitimately outlive pool membership (migration hand-off in flight).
func (c *Checker) MarkExternal(id kvcache.SeqID) { c.external[id] = true }

// UnmarkExternal implements engine.SeqObserver.
func (c *Checker) UnmarkExternal(id kvcache.SeqID) { delete(c.external, id) }

// Final audits end-of-run state: every resident KV sequence must belong to
// a live pool request or a marked-external hand-off — anything else leaked.
// It returns the first violation of the whole run, if any.
func (c *Checker) Final(now time.Duration) error {
	c.observeTime(now)
	kv := c.pool.KV
	if err := kv.Verify(); err != nil {
		c.violate(InvKVInternal, now, "Manager.Verify: %v", err)
	}
	owned := make(map[kvcache.SeqID]bool)
	for _, r := range c.pool.PrefillQueue() {
		owned[kvcache.SeqID(r.ID)] = true
	}
	for _, r := range c.pool.Decoding() {
		owned[kvcache.SeqID(r.ID)] = true
	}
	for _, id := range kv.Sequences() {
		if !owned[id] && !c.external[id] {
			c.violate(InvKVLeak, now, "run ended with orphan sequence %d holding %d KV tokens",
				id, kv.TokensOf(id))
		}
	}
	return c.Err()
}

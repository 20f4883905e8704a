package runtime

import (
	"log/slog"
	"time"

	"gllm/internal/engine"
	"gllm/internal/metrics"
	"gllm/internal/obs"
	"gllm/internal/request"
	"gllm/internal/sched"
)

// driver is the driver worker (§3.3): it owns the request pool, the KV
// cache and the scheduler, admits requests from the frontend, prices each
// micro-batch's prep, stage and hop windows as it injects it, and retires
// batches the clock goroutine hands back when their last window ends —
// emitting token events to the submitters. Its whole pipeline seam is one
// send on pipeCh, one receive from doneCh and one close of pipeCh at exit.
// It is engine.loop's fill/retire protocol on goroutines and wall time:
// both run the same engine.Step and price a batch alike (DESIGN.md §10 says
// where its hooks fire here).
//
// Its state is the pool plus the slots: the pool's two queues are the table
// of resident requests, each reaching its Handle through request.Owner.
//
// It is also the single authority over request termination: every accepted
// handle leaves through finish exactly once (normal completion,
// cancellation, timeout, or shutdown), which counts the outcome, releases
// its admission accounting and ends its stream. Cancellation is cooperative
// — a request with work in an executing micro-batch keeps running until
// that batch retires, and retire aborts it there, so a freed KV sequence is
// never referenced by in-flight compute.
type driver struct {
	*engine.Step[*microBatch] // the pool and the slots, one per stage
	rt                        *Runtime
	prep                      engine.RuntimeModel // prices the control-plane CPU work

	// The pipeline's state on the runtime clock: when each stage is free
	// of the batches injected so far, and when a coupled runtime's driver
	// CPU is free of their prep.
	stages  engine.Stages
	cpuFree time.Duration

	// stopCh and killCh are the runtime's until their close is observed,
	// then nil so the select stops receiving from them.
	stopCh, killCh <-chan struct{}
	draining       bool
	killed         bool
	sincePublish   int           // events since the gauges were last published
	now            time.Duration // the driver's last runtime clock reading
}

// gaugePublishEvery bounds how stale the pool gauges get while the loop
// never goes idle: saturated-pipeline scrapes are at most this many events
// behind.
const gaugePublishEvery = 64

func newDriver(rt *Runtime, plan *engine.Config) *driver {
	depth := len(rt.stageLayers)
	d := &driver{rt: rt, prep: engine.VLLMRuntime, stopCh: rt.stopCh, killCh: rt.killCh}
	d.stages = engine.Stages{Free: make([]time.Duration, depth), Layers: rt.stageLayers,
		Busy: make([]time.Duration, depth), Transfer: make([]time.Duration, depth),
		Spans: rt.cfg.Spans, Fault: rt.cfg.StageFault}
	if rt.emulates() { // else every hop is free: TimeScale never changes
		d.stages.Hop, d.stages.Scale = plan.HopTime, rt.scale
	}
	if rt.cfg.Async {
		d.prep = engine.GLLMRuntime
	}
	slots := make([]*microBatch, depth)
	for i := range slots {
		slots[i] = new(microBatch)
	}
	d.Step = engine.NewStep(plan, rt.kvCapacity, plan.Scheduler, slots, d.retired)
	d.Pool.KV.OnPrefixRun(rt.prefixRuns.set)
	return d
}

// run is the driver goroutine, poll-then-wait until a stop or kill has
// drained the pipeline. Only when poll finds nothing ready are the gauges
// published (so a reader that observes the counters of a quiesced driver
// also sees exact gauges) and does the driver block in wait.
func (d *driver) run() {
	defer close(d.rt.stopped)
	var due *microBatch
	for !d.drained() {
		if d.poll(due) {
			due = nil
			continue
		}
		d.publishGauges()
		due = d.wait()
	}
	d.exit()
}

// poll handles each ready event source once, by one-channel non-blocking
// receives, and reports whether any was ready: the submissions queued when
// it starts (only those, so no source starves) and one fill for them, then
// a cancel, a retirement (due, if wait received one), a stop and a kill.
func (d *driver) poll(due *microBatch) bool {
	rt := d.rt
	n := len(rt.submitCh) // only the driver receives, so n are there
	for range n {
		d.admit(<-rt.submitCh)
		d.count()
	}
	if n > 0 {
		d.fill(d.tick())
	}
	found := n > 0
	select {
	case h := <-rt.cancelCh:
		d.cancelled(h)
		found = d.count()
	default:
	}
	if due == nil {
		select {
		case due = <-rt.doneCh:
		default:
		}
	}
	if due != nil {
		d.retire(due, d.tick())
		found = d.count()
	}
	select {
	case <-d.stopCh:
		d.stopCh, d.draining = nil, true
		d.fence(slog.LevelInfo, "drain started")
		found = d.count()
	default:
	}
	select {
	case <-d.killCh:
		d.killCh, d.killed = nil, true
		d.fence(slog.LevelWarn, "kill requested")
		found = d.count()
	default:
	}
	return found
}

// wait blocks until an event source is ready and handles a submission or a
// cancel; a retirement it returns for the next poll. With no slot free and
// the newest batch's last window ended by the last clock reading, every
// batch in flight is due and nothing admitted could be scheduled before the
// next retire, so it waits on doneCh alone; otherwise on all five sources.
func (d *driver) wait() *microBatch {
	rt := d.rt
	if free := d.stages.Free; d.Free() == 0 && free[len(free)-1] <= d.now {
		return <-rt.doneCh
	}
	select {
	case h := <-rt.submitCh:
		d.admit(h)
		d.fill(d.tick())
		d.count()
	case h := <-rt.cancelCh:
		d.cancelled(h)
		d.count()
	case mb := <-rt.doneCh:
		return mb
	case <-d.stopCh: // a closed signal stays ready: the next poll observes it
	case <-d.killCh:
	}
	return nil
}

// tick reads the runtime clock once for the event being handled.
func (d *driver) tick() time.Duration {
	d.now = d.rt.clock()
	return d.now
}

// cancelled serves a cancellation notice: an abort releases KV, which may
// unblock scheduling.
func (d *driver) cancelled(h *Handle) {
	d.cancel(h.req)
	d.fill(d.tick())
}

// count counts one handled event, publishes the gauges every
// gaugePublishEvery of them, and reports true.
func (d *driver) count() bool {
	if d.sincePublish++; d.sincePublish >= gaugePublishEvery {
		d.publishGauges()
	}
	return true
}

// inFlight is the number of micro-batches inside the pipeline.
func (d *driver) inFlight() int { return len(d.stages.Free) - d.Free() }

// resident is the number of admitted, unfinished requests: the pool's.
func (d *driver) resident() int { return d.Pool.PrefillQueueLen() + d.Pool.RunningDecode() }

// drained reports whether a stopping driver may exit: nothing in flight
// and, on a graceful drain, nothing left that the scheduler can place.
func (d *driver) drained() bool {
	if d.inFlight() > 0 || !d.killed && !d.draining {
		return false
	}
	if !d.killed {
		// Graceful drain: keep scheduling queued and resident work until
		// none remains. If the scheduler cannot place the remainder with an
		// idle pipeline it never will (its decisions depend only on pool
		// state), so the remainder is aborted rather than stalled.
		d.sweep()
		d.fill(d.tick())
	}
	return d.inFlight() == 0
}

// fence closes the frontend the moment the driver learns it is stopping.
// Once stopping is set under the write lock, any submission that already
// passed the check has completed its channel send (it holds the read lock
// across the send), so a later sweep of submitCh provably sees every
// accepted submission: a graceful drain admits and serves them all, a kill
// aborts them all — no handle leaks either way.
func (d *driver) fence(level slog.Level, msg string) {
	d.rt.subMu.Lock()
	d.rt.stopping = true
	d.rt.subMu.Unlock()
	d.rt.logEvent(level, msg, "resident", d.resident(), "in_flight", d.inFlight())
}

// sweep admits every submission queued behind the fence. After a kill
// admit aborts them instead.
func (d *driver) sweep() {
	rt := d.rt
	for {
		select {
		case h := <-rt.submitCh:
			d.admit(h)
		default:
			return
		}
	}
}

// exit terminates every outstanding handle, closes the observer's audit
// and stops the pipeline. Preconditions: the frontend is fenced and nothing
// is in flight, so every resident request is quiescent; a graceful drain
// has already swept the queue empty, so the sweep here only ever aborts.
// The aborts walk a copy of the pool's queues, which each one shrinks.
func (d *driver) exit() {
	rt := d.rt
	d.sweep()
	left := append(append([]*request.Request(nil), d.Pool.PrefillQueue()...), d.Pool.Decoding()...)
	for _, r := range left {
		h := r.Owner.(*Handle)
		reason := FinishShutdown
		if rp := h.abortReason.Load(); rp != nil {
			reason = *rp
		}
		d.abort(h, reason)
	}
	if err := d.Final(rt.clock()); err != nil {
		rt.logEvent(slog.LevelError, "observer violation", "err", err)
	}
	close(rt.pipeCh)
	d.publishGauges()
	rt.exited.Store(true)
	finished, cancelled := rt.outcomes()
	rt.logEvent(slog.LevelInfo, "runtime stopped",
		"finished", finished, "cancelled", cancelled, "iterations", rt.iterations.Load())
}

// admit accepts a submission arriving from the frontend queue.
func (d *driver) admit(h *Handle) {
	if d.killed {
		d.abort(h, FinishShutdown)
		return
	}
	if rp := h.abortReason.Load(); rp != nil {
		// Cancelled while still queued: never enters the pool.
		d.abort(h, *rp)
		return
	}
	h.req.Owner = h
	d.Pool.Add(h.req)
	d.rt.resident.Store(int64(d.resident()))
	if d.rt.cfg.Logger != nil {
		// Guarded: boxing the arguments allocates even when nothing logs.
		d.rt.logEvent(slog.LevelDebug, "request admitted",
			"id", h.req.ID, "prompt", h.req.PromptLen, "max_tokens", h.req.OutputLen)
	}
}

// cancel aborts a resident request whose abort was requested, once it is
// quiescent. The driver calls it on a cancellation notice and for every
// member of a retired batch: only a retire makes a busy request quiescent,
// so a cancel that found its request in flight is served by the retire of
// the last batch holding it.
func (d *driver) cancel(r *request.Request) {
	h, _ := r.Owner.(*Handle)
	if h == nil {
		// Not yet admitted (admit checks the flag) or already terminal.
		return
	}
	if rp := h.abortReason.Load(); rp != nil && quiescent(r) {
		d.abort(h, *rp)
	}
}

// quiescent reports whether the request has no work inside an executing
// micro-batch (the only moment it may be aborted).
func quiescent(r *request.Request) bool {
	return r.InFlightChunks() == 0 && !r.DecodeBusy()
}

// fill schedules fresh batches into the free slots: schedule → price →
// hand to the clock goroutine. now is the event's one reading of the
// runtime clock; it feeds Schedule, the heartbeat and the batch's windows.
// A killed driver schedules nothing more.
func (d *driver) fill(now time.Duration) {
	rt := d.rt
	for !d.killed {
		mb, b, err := d.Schedule(now)
		d.check(err)
		if b == nil {
			return
		}
		mb.seq, mb.batch, mb.shape = int(rt.iterations.Add(1)), b, b.Shape()
		rt.inFlight.Store(int64(d.inFlight()))
		rt.beat(now)
		d.price(mb, now)
		rt.pipeCh <- mb
	}
}

// price computes the windows of mb, injected at now, as the kernel's fill
// and chain do: its prep, then every stage booked by engine.Stages.Book
// from when the activations arrive. The coupled runtime queues its whole
// input preparation on the one driver CPU; the async one delays only this
// batch by its Token Throttling bookkeeping (§3.4). The spans are these
// windows; mb.retireAt is the last one's end.
func (d *driver) price(mb *microBatch, now time.Duration) {
	rt := d.rt
	b, tokens := mb.batch, mb.shape.Tokens()
	var prep, unit time.Duration
	if rt.emulates() { // else unit stays 0: TimeScale never changes
		prep = rt.scale(d.prep.PrepTime(len(b.Chunks)+len(b.Decodes), tokens))
		unit = rt.cost.LayerTime(mb.shape)
	}
	start := d.prep.BookPrep(&d.cpuFree, now, prep)
	at := start + prep
	rt.cfg.Spans.Record(obs.PrepStage, obs.KindPrep, mb.seq, tokens, start, at)
	for s := range d.stages.Free {
		at = d.stages.Book(s, mb.seq, tokens, at, unit)
	}
	mb.retireAt = 0
	if at > now {
		mb.retireAt = at
	}
}

// check stops a driver whose observer reports a violation the way the
// kernel stops a run: as a kill, so nothing more is scheduled and every
// handle terminates once the pipeline drains.
func (d *driver) check(err error) {
	if err != nil && !d.killed {
		d.killed = true
		d.fence(slog.LevelError, "observer violation: "+err.Error())
	}
}

// retire commits a batch that left the last stage through the Step, frees
// its slot and refills the slots. now is the event's one reading of the
// runtime clock.
func (d *driver) retire(mb *microBatch, now time.Duration) {
	rt := d.rt
	b := mb.batch
	mb.batch = nil
	d.check(d.Retire(mb, b, now))
	rt.beat(now)
	if d.inFlight() == 0 {
		// Publish before the counter store below: a reader that observes
		// the drained counter then sees exact gauges too (its Stats lock
		// acquire orders after this publish).
		d.publishGauges()
	}
	rt.inFlight.Store(int64(d.inFlight()))
	d.fill(now)
}

// retired is the driver's per-member work on a completed batch: tokens
// are streamed and cancelled members aborted. Each request's emitted
// watermark marks where this batch's tokens start; a request appears at
// most once per batch (chunks and decodes are disjoint phases).
func (d *driver) retired(b *sched.Batch, _ []*request.Request) {
	for _, c := range b.Chunks {
		d.emit(c.Req)
		d.cancel(c.Req)
	}
	for _, r := range b.Decodes {
		d.emit(r)
		d.cancel(r)
	}
}

// emit streams the tokens a request gained since its last delivery
// (indices Emitted..Generated-1); the watermark lives on the request, so
// emit is idempotent within a batch. Never blocks the driver: one slab
// append per request per retired batch, and a wakeup only for a consumer
// parked in Next.
func (d *driver) emit(r *request.Request) {
	h, _ := r.Owner.(*Handle)
	if h == nil {
		return // already terminated
	}
	gen := r.Generated()
	pre := r.Emitted()
	fin := r.Finished()
	if pre == gen && !fin {
		return
	}
	h.dmu.Lock()
	s := h.slab()
	for i := pre; i < gen; i++ {
		tok := TokenValue(r.ID, i)
		ev := TokenEvent{
			ReqID:    r.ID,
			Index:    i,
			Token:    tok,
			Text:     TokenText(tok),
			Finished: fin && i == gen-1,
		}
		if ev.Finished {
			ev.Reason = FinishLength
		}
		s.evs = append(s.evs, ev)
	}
	h.release()
	r.MarkEmitted(gen)
	if fin {
		d.finish(h, FinishLength)
	}
}

// abort terminates a request early: a resident one (req.Owner set by
// admit) leaves the pool, releasing its KV blocks — the caller guarantees
// it is quiescent — then one synthetic, empty-Text terminal event carries
// the reason, then finalization.
func (d *driver) abort(h *Handle, reason FinishReason) {
	if h.req.Owner != nil {
		d.Pool.Abort(h.req)
	}
	h.deliver(TokenEvent{
		ReqID:    h.req.ID,
		Index:    h.req.Generated(),
		Finished: true,
		Reason:   reason,
	})
	d.finish(h, reason)
}

// finish finalizes a request: exactly once per request, after its last
// event was delivered. The collector counts the outcome before the stream
// ends, which comes last — a consumer that sees it end already finds the
// request in Metrics() and in Stats' Finished/Cancelled.
func (d *driver) finish(h *Handle, reason FinishReason) {
	rt := d.rt
	if h.stopWatch != nil {
		h.stopWatch()
	}
	d.recordReqSpans(h.req, reason)
	h.req.Owner = nil
	if reason == FinishLength {
		rt.collector.Add(metrics.Observe(h.req))
	} else {
		// Record the abort with its real terminal reason so it never
		// pollutes completion latency stats.
		rt.collector.Add(metrics.ObserveAborted(h.req, string(reason)))
		rt.logEvent(slog.LevelInfo, "request aborted",
			"id", h.req.ID, "reason", string(reason), "generated", h.req.Generated())
	}
	rt.resident.Store(int64(d.resident()))
	rt.admittedKV.Add(-h.kvDemand)
	h.terminate(reason)
}

// recordReqSpans converts a traced request's lifecycle timestamps into
// replica-side spans (queue wait, prefill, decode iterations) at
// termination. Aborted requests record the phases they reached, ending at
// the abort time, so spans terminate correctly on every exit path.
func (d *driver) recordReqSpans(req *request.Request, reason FinishReason) {
	rr, start := d.rt.cfg.ReqSpans, d.rt.start
	if rr == nil || req.Trace == 0 {
		return
	}
	end := req.Finish
	if end == 0 {
		end = d.rt.clock()
	}
	at := func(off time.Duration) time.Time { return start.Add(off) }
	qEnd := req.FirstSchedule
	if qEnd == 0 {
		qEnd = end
	}
	rr.Record(req.Trace, obs.SpanQueue, obs.SideReplica, "", 0, at(req.Arrival), at(qEnd))
	if req.FirstSchedule > 0 {
		pEnd := end
		if req.HasFirstToken() {
			pEnd = req.FirstToken
		}
		rr.Record(req.Trace, obs.SpanPrefill, obs.SideReplica, "", 0, at(req.FirstSchedule), at(pEnd))
	}
	if req.HasFirstToken() {
		rr.Record(req.Trace, obs.SpanDecode, obs.SideReplica, string(reason), 0, at(req.FirstToken), at(end))
	}
}

// publishGauges refreshes the pool-derived Snapshot gauges and the stages'
// busy time and booked end, copied without allocating. Called when the
// driver is about to block (so idle-state reads are exact), when the
// pipeline drains, and every gaugePublishEvery events under sustained load
// — not per event: taking rt.mu on every one dominated driver bookkeeping.
func (d *driver) publishGauges() {
	kv := d.Pool.KV
	g := Snapshot{
		WaitingPrefill: d.Pool.WaitingPrefillTokens(),
		RunningDecode:  d.Pool.RunningDecode(),
		KVFreeRate:     kv.FreeRate(),
		Preemptions:    d.Pool.Preemptions(),
		KVTotalBlocks:  kv.TotalBlocks(),
		KVFreeBlocks:   kv.FreeBlocks(),
		KVCachedBlocks: kv.CachedBlocks(),
	}
	g.PrefixHits, g.PrefixHitTokens = kv.PrefixHits()
	d.rt.mu.Lock()
	d.rt.gauges = g
	copy(d.rt.busy, d.stages.Busy)
	d.rt.booked = d.stages.Free[len(d.stages.Free)-1]
	d.rt.mu.Unlock()
	d.sincePublish = 0
}

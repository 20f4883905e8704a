package runtime

import (
	"log/slog"
	"time"

	"gllm/internal/engine"
	"gllm/internal/kvcache"
	"gllm/internal/metrics"
	"gllm/internal/obs"
	"gllm/internal/request"
	"gllm/internal/sched"
)

// driver is the driver worker (§3.3): it owns the request pool, the KV
// cache and the scheduler, admits requests from the frontend, injects
// micro-batches into stage 0, and retires batches arriving from the last
// stage — emitting token events to the submitters. It is engine.loop's
// fill/retire protocol (internal/engine/kernel.go) on goroutines and wall
// time; DESIGN.md §10 maps one onto the other.
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
	rt   *Runtime
	pool *sched.Pool
	prep engine.RuntimeModel // prices the control-plane CPU work
	free []*microBatch       // the slots (one per stage) with no batch in flight
	seq  int                 // injection ordinal, for span labels and the prep watermark

	// stopCh and killCh are the runtime's until their close is observed,
	// then nil so the select stops receiving from them.
	stopCh, killCh <-chan struct{}
	draining       bool
	killed         bool
	sincePublish   int // events since the gauges were last published
}

// gaugePublishEvery bounds how stale the pool gauges get while the loop
// never goes idle: saturated-pipeline scrapes are at most this many events
// behind.
const gaugePublishEvery = 64

func newDriver(rt *Runtime) *driver {
	depth := len(rt.workers)
	d := &driver{
		rt:     rt,
		pool:   sched.NewPool(kvcache.New(rt.kvCapacity, kvBlockSize), depth),
		prep:   engine.VLLMRuntime,
		stopCh: rt.stopCh,
		killCh: rt.killCh,
	}
	if rt.cfg.Async {
		d.prep = engine.GLLMRuntime
	}
	d.pool.EnablePrefixCache = rt.cfg.EnablePrefixCache
	d.pool.AllowPipelinedChunks = rt.cfg.EnableCPP
	for range depth {
		d.free = append(d.free, new(microBatch))
	}
	return d
}

// run is the driver goroutine: one select over the six event sources until
// a stop or kill has drained the pipeline.
func (d *driver) run() {
	rt := d.rt
	defer close(rt.stopped)
	for !d.drained() {
		if len(rt.submitCh) == 0 && len(rt.cancelCh) == 0 && len(rt.doneCh) == 0 {
			// Nothing pending: refresh the gauges before blocking. Every
			// reader that observes the counters of a quiesced driver
			// therefore also sees exact gauges.
			d.publishGauges()
		}
		select {
		case h := <-rt.submitCh:
			d.admit(h)
			d.fill(time.Since(rt.start))
		case h := <-rt.cancelCh:
			d.cancel(h.req)
			d.fill(time.Since(rt.start)) // an abort releases KV, which may unblock scheduling
		case q := <-rt.queryCh:
			q.reply <- d.pool.KV.MatchPrefix(q.group, q.maxTokens)
		case mb := <-rt.doneCh:
			d.retire(mb, time.Since(rt.start))
		case <-d.stopCh:
			d.stopCh, d.draining = nil, true
			d.fence(slog.LevelInfo, "drain started")
		case <-d.killCh:
			d.killCh, d.killed = nil, true
			d.fence(slog.LevelWarn, "kill requested")
		}
		if d.sincePublish++; d.sincePublish >= gaugePublishEvery {
			d.publishGauges()
		}
	}
	d.exit()
}

// inFlight is the number of micro-batches inside the pipeline.
func (d *driver) inFlight() int { return len(d.rt.workers) - len(d.free) }

// resident is the number of admitted, unfinished requests: the pool's.
func (d *driver) resident() int { return d.pool.PrefillQueueLen() + d.pool.RunningDecode() }

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
		d.fill(time.Since(d.rt.start))
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

// exit terminates every outstanding handle and stops the pipeline.
// Preconditions: the frontend is fenced and nothing is in flight, so every
// resident request is quiescent; a graceful drain has already swept the
// queue empty, so the sweep here only ever aborts. The aborts walk a copy
// of the pool's queues, which each one shrinks.
func (d *driver) exit() {
	rt := d.rt
	d.sweep()
	left := append(append([]*request.Request(nil), d.pool.PrefillQueue()...), d.pool.Decoding()...)
	for _, r := range left {
		h := r.Owner.(*Handle)
		reason := FinishShutdown
		if rp := h.abortReason.Load(); rp != nil {
			reason = *rp
		}
		d.abort(h, reason)
	}
	close(rt.workers[0].workCh)
	d.publishGauges()
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
	d.pool.Add(h.req)
	d.rt.resident.Store(int64(d.resident()))
	d.rt.logEvent(slog.LevelDebug, "request admitted",
		"id", h.req.ID, "prompt", h.req.PromptLen, "max_tokens", h.req.OutputLen)
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

// fill schedules fresh batches into the free slots: schedule → prep →
// inject. now is the event's one reading of the runtime clock; it feeds
// Schedule, the heartbeat and the prep span, and is read again only after
// an emulated prep sleep. A killed driver schedules nothing more.
func (d *driver) fill(now time.Duration) {
	rt := d.rt
	if d.killed {
		return
	}
	for len(d.free) > 0 {
		b := rt.cfg.Scheduler.Schedule(d.pool, now)
		if b.Empty() {
			d.pool.PutBatch(b)
			return
		}
		mb := d.free[len(d.free)-1]
		d.free = d.free[:len(d.free)-1]
		d.seq++
		mb.seq, mb.batch, mb.shape = d.seq, b, b.Shape()
		rt.iterations.Add(1)
		rt.inFlight.Store(int64(d.inFlight()))
		rt.beat(now)
		prepStart := now
		if rt.cfg.Async {
			// Dual-phase: metadata first, to every stage, so workers prepare
			// inputs while earlier batches still compute; only the Token
			// Throttling residual stays on the driver. The coupled runtime
			// pays its whole input preparation here, on the critical path.
			// No stage parks on metaCh, so these sends wake nothing: each
			// stage drains them the next time it is awake.
			for _, w := range rt.workers {
				w.metaCh <- mb
			}
		}
		if rt.emulates() {
			prep := d.prep.PrepTime(len(b.Chunks)+len(b.Decodes), b.Tokens())
			if rt.sleepScaled(prep) > 0 {
				now = time.Since(rt.start)
			}
		}
		rt.cfg.Spans.Record(obs.PrepStage, obs.KindPrep, mb.seq, mb.shape.Tokens(), prepStart, now)
		rt.workers[0].workCh <- mb
	}
}

// retire commits a batch that left the last stage: tokens are committed
// and streamed, the batch's cancelled members aborted, the slot freed and
// the slots refilled. now is the event's one reading of the runtime clock.
func (d *driver) retire(mb *microBatch, now time.Duration) {
	rt := d.rt
	d.pool.Complete(mb.batch, now)
	// Each request's emitted watermark marks where this batch's tokens
	// start; a request appears at most once per batch (chunks and decodes
	// are disjoint phases).
	for _, c := range mb.batch.Chunks {
		d.emit(c.Req)
		d.cancel(c.Req)
	}
	for _, r := range mb.batch.Decodes {
		d.emit(r)
		d.cancel(r)
	}
	// The batch is dead once retired: recycle it and free its slot.
	d.pool.PutBatch(mb.batch)
	mb.batch = nil
	d.free = append(d.free, mb)
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

// emit streams the tokens a request gained since its last delivery
// (indices Emitted..Generated-1); the watermark lives on the request, so
// emit is idempotent within a batch. Never blocks the driver: one slab
// append and one wakeup per request per retired batch.
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
	h.dmu.Unlock()
	h.notifyDelivery()
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
		d.pool.Abort(h.req)
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
		end = time.Since(start)
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

// publishGauges refreshes the pool-derived Snapshot gauges. Called when the
// driver is about to block (so idle-state reads are exact), when the
// pipeline drains, and every gaugePublishEvery events under sustained load
// — not per event: taking rt.mu on every one dominated driver bookkeeping.
func (d *driver) publishGauges() {
	kv := d.pool.KV
	g := Snapshot{
		WaitingPrefill: d.pool.WaitingPrefillTokens(),
		RunningDecode:  d.pool.RunningDecode(),
		KVFreeRate:     kv.FreeRate(),
		Preemptions:    d.pool.Preemptions(),
		KVTotalBlocks:  kv.TotalBlocks(),
		KVFreeBlocks:   kv.FreeBlocks(),
		KVCachedBlocks: kv.CachedBlocks(),
	}
	g.PrefixHits, g.PrefixHitTokens = kv.PrefixHits()
	d.rt.mu.Lock()
	d.rt.gauges = g
	d.rt.mu.Unlock()
	d.sincePublish = 0
}

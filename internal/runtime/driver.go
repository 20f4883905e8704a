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
// It is also the single authority over request termination: every admitted
// submission leaves through finish exactly once (normal completion,
// cancellation, timeout, or shutdown), which releases its admission
// accounting and ends its stream. Cancellation is cooperative — requests
// with work in an executing micro-batch are parked in pendingCancels and
// aborted at the next batch boundary, so a freed KV sequence is never
// referenced by in-flight compute.
type driver struct {
	rt             *Runtime
	pool           *sched.Pool
	prep           engine.RuntimeModel // prices the control-plane CPU work
	subs           map[int64]*submission
	pendingCancels map[int64]*submission
	free           []*microBatch // the slots (one per stage) with no batch in flight
	seq            int           // injection ordinal, for span labels and the prep watermark

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
		rt:             rt,
		pool:           sched.NewPool(kvcache.New(rt.kvCapacity, kvBlockSize), depth),
		prep:           engine.VLLMRuntime,
		subs:           make(map[int64]*submission),
		pendingCancels: make(map[int64]*submission),
		stopCh:         rt.stopCh,
		killCh:         rt.killCh,
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
		case sub := <-rt.submitCh:
			d.admit(sub)
			d.fill(time.Since(rt.start))
		case sub := <-rt.cancelCh:
			d.cancel(sub)
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
	d.rt.logEvent(level, msg, "resident", len(d.subs), "in_flight", d.inFlight())
}

// sweep admits every submission queued behind the fence. After a kill
// admit aborts them instead.
func (d *driver) sweep() {
	rt := d.rt
	for {
		select {
		case sub := <-rt.submitCh:
			d.admit(sub)
		default:
			return
		}
	}
}

// exit terminates every outstanding handle and stops the pipeline.
// Preconditions: the frontend is fenced and nothing is in flight, so every
// resident request is quiescent; a graceful drain has already swept the
// queue empty, so the sweep here only ever aborts.
func (d *driver) exit() {
	rt := d.rt
	d.sweep()
	for _, sub := range d.subs {
		reason := FinishShutdown
		if rp := sub.abortReason.Load(); rp != nil {
			reason = *rp
		}
		d.abort(sub, reason)
	}
	close(rt.workers[0].workCh)
	d.publishGauges()
	rt.logEvent(slog.LevelInfo, "runtime stopped",
		"finished", rt.finished.Load(), "cancelled", rt.cancelled.Load(),
		"iterations", rt.iterations.Load())
}

// admit accepts a submission arriving from the frontend queue.
func (d *driver) admit(sub *submission) {
	if d.killed {
		d.abort(sub, FinishShutdown)
		return
	}
	if rp := sub.abortReason.Load(); rp != nil {
		// Cancelled while still queued: never enters the pool.
		d.abort(sub, *rp)
		return
	}
	d.subs[sub.req.ID] = sub
	sub.req.Owner = sub
	d.rt.resident.Store(int64(len(d.subs)))
	d.pool.Add(sub.req)
	d.rt.logEvent(slog.LevelDebug, "request admitted",
		"id", sub.req.ID, "prompt", sub.req.PromptLen, "max_tokens", sub.req.OutputLen)
}

// cancel processes a cancellation notice from the frontend.
func (d *driver) cancel(sub *submission) {
	if sub.req.Owner == nil {
		// Not yet admitted (admit checks the flag) or already terminal.
		return
	}
	if quiescent(sub.req) {
		d.abort(sub, *sub.abortReason.Load())
	} else {
		d.pendingCancels[sub.req.ID] = sub
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
// and streamed, the slot freed, quiescent cancels reaped and the slots
// refilled. now is the event's one reading of the runtime clock.
func (d *driver) retire(mb *microBatch, now time.Duration) {
	rt := d.rt
	fin := len(d.pool.Complete(mb.batch, now))
	// Each request's emitted watermark marks where this batch's tokens
	// start; a request appears at most once per batch (chunks and decodes
	// are disjoint phases).
	for _, c := range mb.batch.Chunks {
		d.emit(c.Req)
	}
	for _, r := range mb.batch.Decodes {
		d.emit(r)
	}
	// The batch is dead once retired: recycle it and free its slot.
	d.pool.PutBatch(mb.batch)
	mb.batch = nil
	d.free = append(d.free, mb)
	rt.beat(now)
	// Cancel-requested requests this batch was holding are quiescent now.
	for _, sub := range d.pendingCancels {
		if quiescent(sub.req) {
			d.abort(sub, *sub.abortReason.Load())
		}
	}
	if d.inFlight() == 0 {
		// Publish before the counter stores below: a reader that observes
		// the drained counters then sees exact gauges too (its Stats lock
		// acquire orders after this publish).
		d.publishGauges()
	}
	rt.finished.Add(int64(fin))
	rt.inFlight.Store(int64(d.inFlight()))
	d.fill(now)
}

// emit streams the tokens a request gained since its last delivery
// (indices Emitted..Generated-1); the watermark lives on the request, so
// emit is idempotent within a batch. Never blocks the driver: one slab
// append and one wakeup per request per retired batch.
func (d *driver) emit(r *request.Request) {
	sub, _ := r.Owner.(*submission)
	if sub == nil {
		return // already terminated
	}
	gen := r.Generated()
	pre := r.Emitted()
	fin := r.Finished()
	if pre == gen && !fin {
		return
	}
	sub.dmu.Lock()
	s := sub.slab()
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
	sub.dmu.Unlock()
	sub.notifyDelivery()
	r.MarkEmitted(gen)
	if fin {
		d.finish(sub, FinishLength)
	}
}

// abort terminates a request early: a resident one (req.Owner set by
// admit) leaves the pool, releasing its KV blocks — the caller guarantees
// it is quiescent — then one synthetic, empty-Text terminal event carries
// the reason, then finalization.
func (d *driver) abort(sub *submission, reason FinishReason) {
	if sub.req.Owner != nil {
		d.pool.Abort(sub.req)
	}
	sub.deliver(TokenEvent{
		ReqID:    sub.req.ID,
		Index:    sub.req.Generated(),
		Finished: true,
		Reason:   reason,
	})
	d.finish(sub, reason)
}

// finish finalizes a submission: exactly once per request, after its last
// event was delivered. Ending the stream comes last — a consumer that sees
// it end must already find the request in Metrics() and the counters.
func (d *driver) finish(sub *submission, reason FinishReason) {
	rt := d.rt
	d.recordReqSpans(sub.req, reason)
	sub.req.Owner = nil
	delete(d.subs, sub.req.ID)
	delete(d.pendingCancels, sub.req.ID)
	if reason == FinishLength {
		rt.collector.Add(metrics.Observe(sub.req))
	} else {
		rt.cancelled.Add(1)
		// Record the abort with its real terminal reason so it never
		// pollutes completion latency stats.
		rt.collector.Add(metrics.ObserveAborted(sub.req, string(reason)))
		rt.logEvent(slog.LevelInfo, "request aborted",
			"id", sub.req.ID, "reason", string(reason), "generated", sub.req.Generated())
	}
	rt.resident.Store(int64(len(d.subs)))
	rt.admittedKV.Add(-sub.kvDemand)
	sub.terminate(reason)
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
	hits, hitTokens := kv.PrefixHits()
	g := poolGauges{
		waitingPrefill:  d.pool.WaitingPrefillTokens(),
		runningDecode:   d.pool.RunningDecode(),
		kvFreeRate:      kv.FreeRate(),
		preemptions:     d.pool.Preemptions(),
		kvTotalBlocks:   kv.TotalBlocks(),
		kvFreeBlocks:    kv.FreeBlocks(),
		kvCachedBlocks:  kv.CachedBlocks(),
		prefixHits:      hits,
		prefixHitTokens: hitTokens,
	}
	d.rt.mu.Lock()
	d.rt.gauges = g
	d.rt.mu.Unlock()
	d.sincePublish = 0
}

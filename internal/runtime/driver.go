package runtime

import (
	"log/slog"
	"time"

	"gllm/internal/kvcache"
	"gllm/internal/metrics"
	"gllm/internal/obs"
	"gllm/internal/request"
	"gllm/internal/sched"
)

// driverLoop is the driver worker (§3.3): it owns the request pool, the KV
// cache and the scheduler, admits requests from the frontend, injects
// micro-batches into stage 0, and retires batches arriving from the last
// stage — emitting token events to the submitters.
//
// It is also the single authority over request termination: every admitted
// submission leaves through finishSub exactly once (normal completion,
// cancellation, timeout, or shutdown), which ends its stream and releases
// its admission accounting. Cancellation is cooperative — requests with
// work in an executing micro-batch are parked in pendingCancels and aborted
// at the next batch boundary, so a freed KV sequence is never referenced by
// in-flight compute.
func (rt *Runtime) driverLoop() {
	defer close(rt.stopped)

	depth := len(rt.workers)
	pool := sched.NewPool(kvcache.New(rt.kvCapacity, rt.cfg.KVBlockSize), depth)
	pool.EnablePrefixCache = rt.cfg.EnablePrefixCache
	pool.AllowPipelinedChunks = rt.cfg.EnableCPP
	subs := make(map[int64]*submission)
	pendingCancels := make(map[int64]*submission)

	inFlight := 0
	seq := 0

	// publishGauges refreshes the pool-derived Snapshot gauges. Called when
	// the driver is about to block (so idle-state reads are exact), when the
	// pipeline drains, and periodically under sustained load — NOT on every
	// loop iteration: walking the pool and taking rt.mu per event used to
	// dominate driver bookkeeping.
	publishGauges := func() {
		hits, hitTokens := pool.KV.PrefixHits()
		g := poolGauges{
			waitingPrefill:  pool.WaitingPrefillTokens(),
			runningDecode:   pool.RunningDecode(),
			kvFreeRate:      pool.KV.FreeRate(),
			preemptions:     pool.Preemptions(),
			kvTotalBlocks:   pool.KV.TotalBlocks(),
			kvFreeBlocks:    pool.KV.FreeBlocks(),
			kvCachedBlocks:  pool.KV.CachedBlocks(),
			prefixHits:      hits,
			prefixHitTokens: hitTokens,
		}
		rt.mu.Lock()
		rt.gauges = g
		rt.mu.Unlock()
	}

	// recordReqSpans converts a traced request's lifecycle timestamps into
	// replica-side spans (queue wait, prefill, decode iterations) at
	// termination. Aborted requests record the phases they reached, ending
	// at the abort time, so spans terminate correctly on every exit path.
	recordReqSpans := func(req *request.Request, reason FinishReason) {
		rr := rt.cfg.ReqSpans
		if rr == nil || req.Trace == 0 {
			return
		}
		end := req.Finish
		if end == 0 {
			end = time.Since(rt.start)
		}
		at := func(d time.Duration) time.Time { return rt.start.Add(d) }
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

	// finishSub finalizes a submission: exactly once per request, after its
	// last event was delivered.
	finishSub := func(sub *submission, reason FinishReason) {
		recordReqSpans(sub.req, reason)
		sub.terminate(reason)
		sub.req.Owner = nil
		delete(subs, sub.req.ID)
		delete(pendingCancels, sub.req.ID)
		rt.resident.Store(int64(len(subs)))
		rt.admittedKV.Add(-sub.kvDemand)
		if reason != FinishLength {
			rt.cancelled.Add(1)
			// Record the abort with its real terminal reason so it never
			// pollutes completion latency stats.
			rt.collector.Add(metrics.ObserveAborted(sub.req, string(reason)))
			rt.logEvent(slog.LevelInfo, "request aborted",
				"id", sub.req.ID, "reason", string(reason), "generated", sub.req.Generated())
		}
	}

	// abortEvent terminates a request early: one synthetic, empty-Text
	// terminal event carrying the reason, then finalization.
	abortEvent := func(sub *submission, reason FinishReason) {
		sub.deliver(TokenEvent{
			ReqID:    sub.req.ID,
			Index:    sub.req.Generated(),
			Finished: true,
			Reason:   reason,
		})
		finishSub(sub, reason)
	}

	// abortResident removes an admitted, quiescent request from the pool,
	// releasing its KV blocks, and terminates its handle.
	abortResident := func(sub *submission, reason FinishReason) {
		pool.Abort(sub.req)
		abortEvent(sub, reason)
	}

	// quiescent reports whether the request has no work inside an executing
	// micro-batch (the only moment it may be aborted).
	quiescent := func(r *request.Request) bool {
		return r.InFlightChunks() == 0 && !r.DecodeBusy()
	}

	// emit streams the tokens a request gained since its last delivery
	// (indices Emitted..Generated-1). Idempotent within a batch — the
	// emitted watermark on the request replaces the per-batch progress map
	// this used to allocate. Never blocks the driver: one slab append and
	// one wakeup per request per retired batch.
	emit := func(r *request.Request) {
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
			rt.collector.Add(metrics.Observe(r))
			finishSub(sub, FinishLength)
		}
	}

	killed := false

	tryInject := func() {
		for inFlight < depth {
			b := rt.cfg.Scheduler.Schedule(pool, time.Since(rt.start))
			if b.Empty() {
				pool.PutBatch(b)
				return
			}
			seq++
			rt.iterations.Add(1)
			inFlight++
			rt.inFlight.Store(int64(inFlight))
			rt.beat()
			mb := mbPool.Get().(*microBatch)
			mb.seq, mb.batch, mb.shape = seq, b, b.Shape()
			prep := rt.cfg.Prep.PrepTime(len(b.Chunks)+len(b.Decodes), b.Tokens())
			prepStart := time.Since(rt.start)
			if rt.cfg.Async {
				// Dual-phase: metadata first, to every stage, so workers
				// prepare inputs while earlier batches still compute.
				for _, w := range rt.workers {
					w.metaCh <- mb
				}
				rt.sleepScaled(prep) // Token Throttling residual only
			} else {
				// Coupled runtime: input preparation on the critical path.
				rt.sleepScaled(prep)
			}
			rt.cfg.Spans.Record(obs.PrepStage, obs.KindPrep, mb.seq, mb.shape.Tokens(),
				prepStart, time.Since(rt.start))
			rt.workers[0].workCh <- mb
		}
	}

	// reapCancels aborts every cancel-requested request that has become
	// quiescent (called after each batch retires).
	reapCancels := func() {
		for _, sub := range pendingCancels {
			if quiescent(sub.req) {
				abortResident(sub, *sub.abortReason.Load())
			}
		}
	}

	// admit accepts a submission arriving from the frontend queue.
	admit := func(sub *submission) {
		if killed {
			abortEvent(sub, FinishShutdown)
			return
		}
		if rp := sub.abortReason.Load(); rp != nil {
			// Cancelled while still queued: never enters the pool.
			abortEvent(sub, *rp)
			return
		}
		subs[sub.req.ID] = sub
		sub.req.Owner = sub
		rt.resident.Store(int64(len(subs)))
		pool.Add(sub.req)
		rt.logEvent(slog.LevelDebug, "request admitted",
			"id", sub.req.ID, "prompt", sub.req.PromptLen, "max_tokens", sub.req.OutputLen)
	}

	// handleCancel processes a cancellation notice from the frontend.
	handleCancel := func(sub *submission) {
		if _, ok := subs[sub.req.ID]; !ok {
			// Not yet admitted (admit checks the flag) or already terminal.
			return
		}
		if quiescent(sub.req) {
			abortResident(sub, *sub.abortReason.Load())
		} else {
			pendingCancels[sub.req.ID] = sub
		}
	}

	handleDone := func(mb *microBatch) {
		fin := pool.Complete(mb.batch, time.Since(rt.start))
		// Each request's emitted watermark marks where this batch's tokens
		// start, so no pre-commit progress capture (or map) is needed; a
		// request appears at most once per batch (chunks and decodes are
		// disjoint phases).
		for _, c := range mb.batch.Chunks {
			emit(c.Req)
		}
		for _, d := range mb.batch.Decodes {
			emit(d)
		}
		inFlight--
		rt.beat()
		reapCancels()
		// The batch and its carrier are dead once retired: recycle both.
		pool.PutBatch(mb.batch)
		mb.batch = nil
		mbPool.Put(mb)
		if inFlight == 0 {
			// Publish before the counter stores below: a reader that
			// observes the drained counters then sees exact gauges too
			// (its Stats lock acquire orders after this publish).
			publishGauges()
		}
		rt.finished.Add(int64(len(fin)))
		rt.inFlight.Store(int64(inFlight))
	}

	// fence closes the frontend the moment the driver learns it is stopping.
	// Once stopping is set under the write lock, any submission that already
	// passed the check has completed its channel send (it holds the read
	// lock across the send), so a later sweep of submitCh provably sees
	// every accepted submission: a graceful drain admits and serves them
	// all, a kill aborts them all — no handle leaks either way.
	fence := func() {
		rt.subMu.Lock()
		rt.stopping = true
		rt.subMu.Unlock()
	}

	// shutdownExit terminates every outstanding handle and stops the
	// pipeline. Preconditions: the frontend is fenced, and inFlight == 0, so
	// every resident request is quiescent.
	shutdownExit := func() {
		for {
			select {
			case sub := <-rt.submitCh:
				abortEvent(sub, FinishShutdown)
				continue
			default:
			}
			break
		}
		for _, sub := range subs {
			reason := FinishShutdown
			if rp := sub.abortReason.Load(); rp != nil {
				reason = *rp
			}
			abortResident(sub, reason)
		}
		if rt.cfg.Async {
			for _, w := range rt.workers {
				close(w.metaCh)
			}
		}
		close(rt.workers[0].workCh)
		publishGauges()
		rt.logEvent(slog.LevelInfo, "runtime stopped",
			"finished", rt.finished.Load(), "cancelled", rt.cancelled.Load(),
			"iterations", rt.iterations.Load())
	}

	stopCh := rt.stopCh
	killCh := rt.killCh
	draining := false

	// The five event arms, shared between the non-blocking poll and the
	// blocking wait below.
	onSubmit := func(sub *submission) {
		admit(sub)
		if !killed {
			tryInject()
		}
	}
	onCancel := func(sub *submission) {
		handleCancel(sub)
		if !killed {
			// An abort releases KV, which may unblock scheduling.
			tryInject()
		}
	}
	onDone := func(mb *microBatch) {
		handleDone(mb)
		if !killed {
			tryInject()
		}
	}
	onStop := func() {
		stopCh = nil
		draining = true
		fence()
		rt.logEvent(slog.LevelInfo, "drain started",
			"resident", len(subs), "in_flight", inFlight)
	}
	onKill := func() {
		killCh = nil
		killed = true
		fence()
		rt.logEvent(slog.LevelWarn, "kill requested",
			"resident", len(subs), "in_flight", inFlight)
	}

	// Publish the pool gauges at least every gaugePublishEvery events while
	// the loop never goes idle, so saturated-pipeline scrapes stay at most a
	// few micro-batches stale.
	const gaugePublishEvery = 64
	sincePublish := 0
	for {
		if killed {
			if inFlight == 0 {
				shutdownExit()
				return
			}
		} else if draining && inFlight == 0 {
			// Graceful drain: keep scheduling queued and resident work until
			// none remains. If the scheduler cannot place the remainder with
			// an idle pipeline it never will (its decisions depend only on
			// pool state), so the remainder is aborted rather than stalled.
			for {
				select {
				case sub := <-rt.submitCh:
					admit(sub)
					continue
				default:
				}
				break
			}
			tryInject()
			if inFlight == 0 {
				shutdownExit()
				return
			}
		}
		select {
		case sub := <-rt.submitCh:
			onSubmit(sub)
		case sub := <-rt.cancelCh:
			onCancel(sub)
		case q := <-rt.queryCh:
			q.reply <- pool.KV.MatchPrefix(q.group, q.maxTokens)
		case mb := <-rt.doneCh:
			onDone(mb)
		case <-stopCh:
			onStop()
		case <-killCh:
			onKill()
		default:
			// Nothing pending: refresh the gauges, then block. Every reader
			// that observes the counters of a quiesced driver therefore also
			// sees exact gauges.
			publishGauges()
			sincePublish = 0
			select {
			case sub := <-rt.submitCh:
				onSubmit(sub)
			case sub := <-rt.cancelCh:
				onCancel(sub)
			case q := <-rt.queryCh:
				q.reply <- pool.KV.MatchPrefix(q.group, q.maxTokens)
			case mb := <-rt.doneCh:
				onDone(mb)
			case <-stopCh:
				onStop()
			case <-killCh:
				onKill()
			}
		}
		if sincePublish++; sincePublish >= gaugePublishEvery {
			publishGauges()
			sincePublish = 0
		}
	}
}

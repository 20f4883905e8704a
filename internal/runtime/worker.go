package runtime

import (
	"sync/atomic"

	"gllm/internal/obs"
)

// worker is one pipeline-stage worker process: one goroutine that executes
// micro-batches in arrival order and forwards activations. It emulates only
// what the cost model prices — the stage's execute time and its outgoing hop
// — so the driver's send into stage 0 is the pipeline's one entry; input
// preparation is the driver's priced prep charge (engine.RuntimeModel).
type worker struct {
	rt     *Runtime
	idx    int
	layers int

	workCh chan *microBatch
	next   *worker

	// busyNanos is the stage's cumulative emulated execute time, as slept
	// on the wall clock (the numerator of Snapshot.BubbleRate).
	busyNanos atomic.Int64
}

func newWorker(rt *Runtime, idx int) *worker {
	return &worker{
		rt:     rt,
		idx:    idx,
		layers: rt.stageLayers[idx],
		// Exceeds the ≤ depth batches in flight, so no send ever blocks.
		workCh: make(chan *microBatch, 2*len(rt.stageLayers)+4),
	}
}

// start wires the worker to its successor and spawns its goroutine.
func (w *worker) start(hasNext bool) {
	if hasNext {
		w.next = w.rt.workers[w.idx+1]
	}
	go w.computeLoop()
}

// computeLoop executes micro-batches in arrival order and forwards
// activations downstream (or retires the batch to the driver at the last
// stage). The clock is read only around an emulated sleep or for a span.
func (w *worker) computeLoop() {
	rt := w.rt
	spans := rt.cfg.Spans
	defer func() {
		if w.next != nil {
			close(w.next.workCh)
		}
	}()
	for mb := range w.workCh {
		if fault := rt.cfg.StageFault; fault != nil {
			// Injected stall (wall clock, not modeled time); Close cuts it
			// short via sleepWall's kill select.
			if d := fault(w.idx, mb.seq); d > 0 {
				rt.sleepWall(d)
			}
		}
		execStart := rt.spanClock()
		if rt.emulates() {
			w.busyNanos.Add(int64(rt.sleepScaled(rt.cost.StageTime(mb.shape, w.layers))))
		}
		execEnd := rt.spanClock()
		spans.Record(w.idx, obs.KindExec, mb.seq, mb.shape.Tokens(), execStart, execEnd)
		if w.next == nil {
			rt.doneCh <- mb
			continue
		}
		if rt.emulates() {
			actBytes := int64(mb.shape.Tokens()) * rt.cfg.Model.ActivationBytesPerToken()
			rt.sleepScaled(rt.cfg.Topo.Hop(w.idx).TransferTime(actBytes))
		}
		spans.Record(w.idx, obs.KindXfer, mb.seq, mb.shape.Tokens(), execEnd, rt.spanClock())
		w.next.workCh <- mb
	}
}

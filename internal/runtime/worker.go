package runtime

import (
	"sync/atomic"

	"gllm/internal/obs"
)

// worker is one pipeline-stage worker process: one goroutine that executes
// micro-batches in arrival order and forwards activations. In async mode it
// also prepares input descriptors from the driver's metadata broadcast
// (metaCh) whenever it is awake anyway — right after forwarding a batch,
// while earlier batches still compute downstream — so inputs are usually
// ready before the activations arrive (the paper's "preemptive metadata
// scheduling"). A metadata send wakes nothing; the activations do.
type worker struct {
	rt     *Runtime
	idx    int
	layers int

	metaCh chan *microBatch
	workCh chan *microBatch
	next   *worker

	// prepSeq is the highest micro-batch seq whose inputs this stage has
	// prepared. The driver hands seqs out strictly increasing and metaCh is
	// FIFO, so one watermark, touched only by the stage goroutine, says
	// which batches are ready.
	prepSeq int
	// inputs is the stage's reusable input-descriptor scratch.
	inputs []inputDesc
	// preparedEarly counts batches whose inputs were ready before the
	// activations arrived (observability for the overlap design).
	preparedEarly atomic.Int64
	// busyNanos is the stage's cumulative emulated execute time, as slept
	// on the wall clock (the numerator of Snapshot.BubbleRate).
	busyNanos atomic.Int64
}

func newWorker(rt *Runtime, idx int) *worker {
	return &worker{
		rt:     rt,
		idx:    idx,
		layers: rt.stageLayers[idx],
		// Both exceed the ≤ depth batches in flight, so the driver's sends
		// never block.
		metaCh: make(chan *microBatch, 2*len(rt.stageLayers)+4),
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

// inputDesc is the per-sequence input metadata a stage builds before it can
// launch its kernels (token positions, context lengths).
type inputDesc struct {
	reqID  int64
	tokens int
	ctx    int
}

// buildInputs constructs the stage's input descriptors from a metadata
// packet into the worker's reusable scratch and advances the watermark.
// This is the work that the async runtime hides off the critical path.
func (w *worker) buildInputs(mb *microBatch) {
	ins := w.inputs[:0]
	for _, c := range mb.batch.Chunks {
		ins = append(ins, inputDesc{reqID: c.Req.ID, tokens: c.Tokens, ctx: c.CtxStart})
	}
	for _, d := range mb.batch.Decodes {
		ins = append(ins, inputDesc{reqID: d.ID, tokens: 1, ctx: d.ContextLen()})
	}
	w.inputs = ins
	w.prepSeq = mb.seq
}

// prepareAhead prepares every metadata packet the driver has already
// published, without waiting for more.
func (w *worker) prepareAhead() {
	for {
		select {
		case mb := <-w.metaCh:
			w.buildInputs(mb)
		default:
			return
		}
	}
}

// prepareUpTo catches the watermark up to seq. The driver publishes a
// batch's metadata before it injects its activations, so the packet is
// already queued and the receive does not park.
func (w *worker) prepareUpTo(seq int) {
	if w.prepSeq >= seq {
		w.preparedEarly.Add(1)
		return
	}
	for w.prepSeq < seq {
		w.buildInputs(<-w.metaCh)
	}
}

// computeLoop executes micro-batches in arrival order and forwards
// activations downstream (or retires the batch to the driver at the last
// stage). The clock is read only around an emulated sleep or for a span.
func (w *worker) computeLoop() {
	rt := w.rt
	async, spans := rt.cfg.Async, rt.cfg.Spans
	defer func() {
		if w.next != nil {
			close(w.next.workCh)
		}
	}()
	for mb := range w.workCh {
		if async {
			w.prepareUpTo(mb.seq)
		} else {
			// Coupled runtime: metadata travels with activations and inputs
			// are built on the critical path.
			w.buildInputs(mb)
		}
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
		} else {
			if rt.emulates() {
				actBytes := int64(mb.shape.Tokens()) * rt.cfg.Model.ActivationBytesPerToken()
				rt.sleepScaled(rt.cfg.Topo.Hop(w.idx).TransferTime(actBytes))
			}
			spans.Record(w.idx, obs.KindXfer, mb.seq, mb.shape.Tokens(), execEnd, rt.spanClock())
			w.next.workCh <- mb
		}
		if async {
			w.prepareAhead()
		}
	}
}

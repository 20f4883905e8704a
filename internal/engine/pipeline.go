package engine

import (
	"time"

	"gllm/internal/gpu"
	"gllm/internal/obs"
	"gllm/internal/workload"
)

// RunPipeline simulates serving the trace on a pipeline-parallel deployment
// (one stage per GPU in cfg.Topo) and returns the aggregated result.
func RunPipeline(cfg Config, items []workload.Item) (*Result, error) {
	depth := cfg.Topo.GPUs()
	r, err := newRun(&cfg, depth)
	if err != nil {
		return nil, err
	}
	stageLayers, kvCap, err := cfg.stages(&r.cost, depth, "")
	if err != nil {
		return nil, err
	}
	r.addLoop(kvCap, depth, cfg.Scheduler, newChain(r, 0, stageLayers))
	return r.serve(items, cfg.Scheduler.Name(), kvCap)
}

// chain is the pipeline strategy: a row of exclusive stages, visited in order
// with an activation transfer over each hop, so up to len(layers)
// micro-batches overlap. first is the topology index of stage 0 (a
// disaggregated decode replica sits after the prefill GPUs); spans, hops
// and busy lanes use global indices. A batch is priced once; stage i
// charges layers[i] times that price, StageTime's product without
// re-pricing at every stage.
type chain struct {
	free   []time.Duration // when each stage is next free
	first  int
	layers []int
	price  func(shape gpu.BatchShape) time.Duration
}

// newChain builds one stage per GPU, stage i holding layers[i] of the model.
func newChain(r *run, first int, layers []int) *chain {
	return &chain{first: first, free: make([]time.Duration, len(layers)), layers: layers, price: r.cost.LayerTime}
}

func (c *chain) execute(mb *microBatch) {
	if mb.arrived == nil { // the slot's first batch: bind its callback, once
		mb.arrived = func() { c.enter(mb.stage+1, mb) }
	}
	mb.unit = c.price(mb.shape)
	c.enter(0, mb)
}

// enter books the batch on stage i at the event where its activations
// arrive: it starts at the later of now and when the stage is free, which
// applied in arrival order is a FIFO server's start time. The stage's exec
// window and the hop after it are recorded as they are booked, and the
// next event is issued: the arrival at stage i+1 or, after the last stage,
// the retire.
func (c *chain) enter(i int, mb *microBatch) {
	r := mb.loop.run
	hop, tokens := c.first+i, mb.shape.Tokens()
	dur := time.Duration(c.layers[i]) * mb.unit
	start := max(r.eng.Now(), c.free[i])
	end := start + dur
	c.free[i], mb.stage = end, i
	r.busy[hop] += dur
	r.cfg.Spans.Record(hop, obs.KindExec, mb.seq, tokens, start, end)
	if i+1 == len(c.layers) {
		r.eng.At(end, mb.ran)
		return
	}
	arrive := end + r.cfg.HopTime(hop, tokens)
	r.cfg.Spans.Record(hop, obs.KindXfer, mb.seq, tokens, end, arrive)
	r.eng.At(arrive, mb.arrived)
}

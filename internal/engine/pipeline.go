package engine

import (
	"time"

	"gllm/internal/gpu"
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
// with an activation transfer over each hop, so up to len(Layers)
// micro-batches overlap. Stage 0 sits at topology index First (a
// disaggregated decode replica sits after the prefill GPUs); spans, hops
// and busy lanes use global indices. A batch is priced once, per layer;
// Stages.Book charges stage i its layers times that price.
type chain struct {
	Stages
	price func(shape gpu.BatchShape) time.Duration
}

// newChain builds one stage per GPU, stage i holding layers[i] of the
// model and booking its busy and hop time on the run's lane First+i.
func newChain(r *run, first int, layers []int) *chain {
	lanes := first + len(layers)
	stages := Stages{Free: make([]time.Duration, len(layers)), Layers: layers, Busy: r.busy[first:lanes],
		Transfer: r.transfer[first:lanes], First: first, Spans: r.cfg.Spans, Hop: r.cfg.HopTime}
	return &chain{Stages: stages, price: r.cost.LayerTime}
}

func (c *chain) execute(mb *microBatch, ready time.Duration) {
	if mb.arrived == nil { // the slot's first batch: bind its callback, once
		mb.arrived = func() { c.enter(mb.stage+1, mb, mb.loop.run.eng.Now()) }
	}
	mb.unit = c.price(mb.shape)
	c.enter(0, mb, ready)
}

// enter books the batch on stage i when its activations arrive at at: at
// injection for stage 0, at the arrival event for any other, so applied in
// arrival order each stage is a FIFO server. Stages.Book records the
// windows, and the next event is issued: the arrival at stage i+1 or,
// after the last stage, the retire.
func (c *chain) enter(i int, mb *microBatch, at time.Duration) {
	next := c.Book(i, mb.seq, mb.shape.Tokens(), at, mb.unit)
	mb.stage = i
	if i+1 == len(c.Free) {
		mb.loop.run.eng.At(next, mb.ran)
		return
	}
	mb.loop.run.eng.At(next, mb.arrived)
}

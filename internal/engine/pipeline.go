package engine

import (
	"fmt"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/obs"
	"gllm/internal/sim"
	"gllm/internal/workload"
)

// RunPipeline simulates serving the trace on a pipeline-parallel deployment
// (one stage per GPU in cfg.Topo) and returns the aggregated result.
func RunPipeline(cfg Config, items []workload.Item) (*Result, error) {
	r, err := newRun(&cfg)
	if err != nil {
		return nil, err
	}
	depth := cfg.Topo.GPUs()
	if depth > cfg.Model.NumLayers {
		return nil, fmt.Errorf("engine: pipeline depth %d exceeds %d layers", depth, cfg.Model.NumLayers)
	}
	stageLayers := cfg.Model.StageLayers(depth)
	kvCap := r.cost.KVCapacityTokensPP(stageLayers, cfg.MemUtil)
	if kvCap < kvBlockSize {
		return nil, fmt.Errorf("engine: %s on %d x %s (KV capacity %d tokens): %w",
			cfg.Model.Name, depth, cfg.GPU.Name, kvCap, ErrModelDoesNotFit)
	}
	r.addLoop(kvCap, depth, cfg.Scheduler, newChain(r, "stage", 0, stageLayers))
	return r.serve(items, cfg.Scheduler.Name(), kvCap)
}

// chain is the pipeline strategy: a row of exclusive stages, visited in order
// with an activation transfer over each hop, so up to len(stages)
// micro-batches overlap. first is the topology index of stage 0 (a
// disaggregated decode replica sits after the prefill GPUs); spans and hops
// use global indices. A batch is priced once; stage i charges layers[i]
// times that price, StageTime's product without re-pricing at every stage.
type chain struct {
	stages []*sim.Resource
	first  int
	layers []int
	price  func(shape gpu.BatchShape) time.Duration
}

// newChain builds one stage per GPU, stage i holding layers[i] of the model.
func newChain(r *run, name string, first int, layers []int) *chain {
	c := &chain{first: first, stages: make([]*sim.Resource, len(layers)), layers: layers, price: r.cost.LayerTime}
	for i := range c.stages {
		c.stages[i] = sim.NewResource(r.eng, fmt.Sprintf("%s%d", name, i))
	}
	return c
}

func (c *chain) execute(mb *microBatch) {
	if mb.ran == nil { // the slot's first batch: bind its two callbacks, once
		mb.ran = func() { c.ran(mb) }
		mb.arrived = func() { c.enter(mb.stage+1, mb) }
	}
	mb.unit = c.price(mb.shape)
	c.enter(0, mb)
}

// enter enqueues the batch on stage i.
func (c *chain) enter(i int, mb *microBatch) {
	mb.stage, mb.dur = i, time.Duration(c.layers[i])*mb.unit
	c.stages[i].Submit(mb.dur, mb.ran)
}

// ran runs when the batch leaves its stage: it forwards the activations or,
// after the last stage, retires the batch.
func (c *chain) ran(mb *microBatch) {
	r := mb.loop.run
	now, hop, tokens := r.eng.Now(), c.first+mb.stage, mb.shape.Tokens()
	r.cfg.Spans.Record(hop, obs.KindExec, mb.seq, tokens, now-mb.dur, now)
	if mb.stage+1 == len(c.stages) {
		mb.loop.retire(mb)
		return
	}
	actBytes := int64(tokens) * r.cfg.Model.ActivationBytesPerToken()
	xfer := r.cfg.Topo.Hop(hop).TransferTime(actBytes)
	r.cfg.Spans.Record(hop, obs.KindXfer, mb.seq, tokens, now, now+xfer)
	r.eng.After(xfer, mb.arrived)
}

func (c *chain) stageBusy(dst []time.Duration) []time.Duration {
	for _, st := range c.stages {
		dst = append(dst, st.BusyTime())
	}
	return dst
}

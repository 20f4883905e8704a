package engine

import (
	"fmt"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/network"
	"gllm/internal/workload"
)

// RunTensor simulates serving the trace on a tensor-parallel deployment
// spanning all GPUs in cfg.Topo (the SGLang-like baseline). The scheduler
// sees a pipeline depth of 1: there is exactly one in-flight batch.
func RunTensor(cfg Config, items []workload.Item) (*Result, error) {
	r, err := newRun(&cfg, 1)
	if err != nil {
		return nil, err
	}
	tp := cfg.Topo.GPUs()
	kvCap := r.cost.KVCapacityTokensTP(tp, cfg.MemUtil)
	if kvCap < KVBlockSize {
		return nil, fmt.Errorf("engine: %s on %d x %s under TP (KV capacity %d tokens): %w",
			cfg.Model.Name, tp, cfg.GPU.Name, kvCap, ErrModelDoesNotFit)
	}
	// All GPUs act as one fused device running one whole-model iteration at a
	// time: a chain of a single stage charging its price once, per iteration.
	c := newChain(r, 0, []int{1})
	c.price = func(shape gpu.BatchShape) time.Duration { return tensorIterationTime(&r.cost, cfg.Topo, shape) }
	r.addLoop(kvCap, 1, cfg.Scheduler, c)
	return r.serve(items, cfg.Scheduler.Name(), kvCap)
}

// tensorIterationTime prices one TP iteration: per-layer sharded compute plus
// two ring all-reduces of the activation tensor per layer over the TP link.
func tensorIterationTime(cost *gpu.CostModel, topo network.Topology, shape gpu.BatchShape) time.Duration {
	tp := topo.GPUs()
	layer := cost.TensorParallelLayerTime(shape, tp)
	actBytes := int64(shape.Tokens()) * cost.Model.ActivationBytesPerToken()
	comm := topo.TPLink.AllReduceTime(actBytes, tp)
	return time.Duration(cost.Model.NumLayers) * (layer + 2*comm)
}

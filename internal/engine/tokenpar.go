package engine

import (
	"fmt"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/workload"
)

// TokenParallelConfig configures the TKNP engine: the root group (the
// first RootTP ranks) holds the full model weights tensor-parallel and runs
// QKV/output projections plus the MLP for the whole batch; every rank —
// roots included — owns a 1/N partition of the KV cache and computes
// attention scores only over its partition. Each layer the roots scatter
// per-token queries (and the new tokens' KV entries) to the owning
// partitions and gather attention outputs back over Topo.TPLink.
type TokenParallelConfig struct {
	Config
	// RootTP is the tensor-parallel degree of the weight-holding root
	// group (default 1: a single root rank).
	RootTP int
}

// tknpIterCost is the per-iteration price breakdown of one scheduled batch.
type tknpIterCost struct {
	total time.Duration
	root  time.Duration // root-group compute incl. root-TP all-reduces
	comm  time.Duration // query scatter + attention-output gather
	peer  time.Duration // per-rank partitioned attention
	bytes int64         // scatter + gather payload over the group link
}

// tokenParallelIterationTime prices one TKNP iteration over the whole
// model: per layer, the root group computes projections and the MLP for
// every token (plus its own all-reduces when RootTP > 1), scatters queries
// and fresh KV entries to the partition owners, all N ranks run attention
// over their KV slice, and the attention outputs are gathered back.
func tokenParallelIterationTime(cost *gpu.CostModel, topo network.Topology, rootTP int, shape gpu.BatchShape) tknpIterCost {
	n := topo.GPUs()
	layers := cost.Model.NumLayers
	tokens := int64(shape.Tokens())
	actBytes := tokens * cost.Model.ActivationBytesPerToken()

	root := cost.TokenParallelRootLayerTime(shape, rootTP)
	if rootTP > 1 {
		// The root group's all-reduce is gated by its slowest internal hop.
		link := topo.Hop(0)
		for i := 1; i < rootTP-1; i++ {
			if h := topo.Hop(i); h.Bandwidth < link.Bandwidth {
				link = h
			}
		}
		root += 2 * link.AllReduceTime(actBytes, rootTP)
	}

	scatterBytes := tokens * (cost.Model.ActivationBytesPerToken() + cost.Model.KVBytesPerTokenPerLayer())
	gatherBytes := actBytes
	comm := topo.TPLink.ScatterTime(scatterBytes, n) + topo.TPLink.ScatterTime(gatherBytes, n)
	peer := cost.TokenParallelPeerLayerTime(shape, n)

	l := time.Duration(layers)
	return tknpIterCost{
		total: l * (root + comm + peer),
		root:  l * root,
		comm:  l * comm,
		peer:  l * peer,
		bytes: int64(layers) * (scatterBytes + gatherBytes),
	}
}

// RunTokenParallel simulates serving the trace on a token-parallel (TKNP)
// deployment spanning all GPUs in cfg.Topo. The scheduler sees a pipeline
// depth of 1: one in-flight batch over the whole model per iteration.
func RunTokenParallel(cfg TokenParallelConfig, items []workload.Item) (*Result, error) {
	r, err := newRun(&cfg.Config, cfg.Topo.GPUs())
	if err != nil {
		return nil, err
	}
	n := cfg.Topo.GPUs()
	if cfg.RootTP == 0 {
		cfg.RootTP = 1
	}
	if cfg.RootTP < 1 || cfg.RootTP > n {
		return nil, fmt.Errorf("engine: TKNP root TP degree %d out of [1,%d]", cfg.RootTP, n)
	}
	kvCap := r.cost.KVCapacityTokensTKNP(n, cfg.RootTP, cfg.MemUtil)
	if kvCap < KVBlockSize {
		return nil, fmt.Errorf("engine: %s on %d x %s under TKNP (root TP %d, KV capacity %d tokens): %w",
			cfg.Model.Name, n, cfg.GPU.Name, cfg.RootTP, kvCap, ErrModelDoesNotFit)
	}
	r.addLoop(kvCap, 1, cfg.Scheduler, &tknpGroup{ranks: n, rootTP: cfg.RootTP})
	return r.serve(items, cfg.Scheduler.Name(), kvCap)
}

// tknpGroup is the token-parallel strategy. Like the tensor engine it runs
// one whole-model iteration at a time over the whole group, which with one
// slot never waits for itself, so the iteration is booked from its ready
// time: its spans, each rank's busy time from the price breakdown — every
// rank runs attention over its KV partition, the root ranks the
// projections and MLP on top — and the scatter/gather time and bytes.
type tknpGroup struct {
	ranks, rootTP int
}

func (g *tknpGroup) execute(mb *microBatch, ready time.Duration) {
	r := mb.loop.run
	iter := tokenParallelIterationTime(&r.cost, r.cfg.Topo, g.rootTP, mb.shape)
	g.recordSpans(r.cfg.Spans, mb.seq, mb.shape.Tokens(), ready, iter)
	for s := range g.ranks {
		r.busy[s] += iter.peer
		if s < g.rootTP {
			r.busy[s] += iter.root
		}
	}
	r.transfer[0] += iter.comm
	r.tknpCommBytes += iter.bytes
	r.eng.At(ready+iter.total, mb.ran)
}

// recordSpans emits the iteration's spans: root exec on the weight-holding
// ranks, one transfer span for the scatter/gather traffic, and a
// partitioned-attention exec span on every rank. The segments tile the
// iteration window exactly (total == root + comm + peer).
func (g *tknpGroup) recordSpans(spans *obs.Recorder, seq, tokens int, start time.Duration, iter tknpIterCost) {
	if spans == nil {
		return
	}
	end := start + iter.total
	rootEnd := start + iter.root
	commEnd := rootEnd + iter.comm
	for s := 0; s < g.rootTP; s++ {
		spans.Record(s, obs.KindExec, seq, tokens, start, rootEnd)
	}
	spans.Record(0, obs.KindXfer, seq, tokens, rootEnd, commEnd)
	for s := 0; s < g.ranks; s++ {
		spans.Record(s, obs.KindExec, seq, tokens, commEnd, end)
	}
}

package engine

import (
	"fmt"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/sim"
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
	r, err := newRun(&cfg.Config)
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
	if kvCap < kvBlockSize {
		return nil, fmt.Errorf("engine: %s on %d x %s under TKNP (root TP %d, KV capacity %d tokens): %w",
			cfg.Model.Name, n, cfg.GPU.Name, cfg.RootTP, kvCap, ErrModelDoesNotFit)
	}
	r.addLoop(kvCap, 1, cfg.Scheduler, &tknpGroup{ranks: n, rootTP: cfg.RootTP, group: sim.NewResource(r.eng, "tknp-group")})
	return r.serve(items, cfg.Scheduler.Name(), kvCap)
}

// tknpGroup is the token-parallel strategy. Like the tensor engine it runs
// one whole-model iteration at a time on one fused resource; rank busy time
// is booked from the iteration's price breakdown as it ends.
type tknpGroup struct {
	ranks, rootTP int
	group         *sim.Resource
	iter          tknpIterCost  // the iteration in flight (the loop has one slot)
	rootBusy      time.Duration // per-root-rank exec time (projections + MLP)
	peerBusy      time.Duration // per-rank attention exec time
}

func (g *tknpGroup) execute(mb *microBatch) {
	if mb.ran == nil { // the slot's first batch: bind its callback, once
		mb.ran = func() { g.ran(mb) }
	}
	r := mb.loop.run
	g.iter = tokenParallelIterationTime(&r.cost, r.cfg.Topo, g.rootTP, mb.shape)
	g.group.Submit(g.iter.total, mb.ran)
}

// ran books the finished iteration, then retires its batch — which may
// execute the next one and overwrite g.iter.
func (g *tknpGroup) ran(mb *microBatch) {
	r := mb.loop.run
	g.recordSpans(r.cfg.Spans, mb.seq, mb.shape.Tokens(), r.eng.Now(), g.iter)
	g.rootBusy += g.iter.root
	g.peerBusy += g.iter.peer
	r.tknpCommBytes += g.iter.bytes
	mb.loop.retire(mb)
}

// stageBusy reports one entry per rank: every rank runs attention over its
// KV partition, the root ranks the projections and MLP on top.
func (g *tknpGroup) stageBusy(dst []time.Duration) []time.Duration {
	for s := 0; s < g.ranks; s++ {
		busy := g.peerBusy
		if s < g.rootTP {
			busy += g.rootBusy
		}
		dst = append(dst, busy)
	}
	return dst
}

// recordSpans emits the iteration's spans: root exec on the weight-holding
// ranks, one transfer span for the scatter/gather traffic, and a
// partitioned-attention exec span on every rank. The segments tile the
// iteration window exactly (total == root + comm + peer).
func (g *tknpGroup) recordSpans(spans *obs.Recorder, seq, tokens int, end time.Duration, iter tknpIterCost) {
	if spans == nil {
		return
	}
	start := end - iter.total
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

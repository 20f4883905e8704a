package engine

import (
	"fmt"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/kvcache"
	"gllm/internal/obs"
	"gllm/internal/request"
	"gllm/internal/sched"
)

// What the two pipeline loops share — the kernel's loop in virtual time,
// runtime's driver on goroutines and wall time: one deployment plan and one
// iteration step (DESIGN.md §9).

// prepare applies cfg's defaults, validates it and builds its cost model:
// the head of every deployment plan, simulated (newRun) or live
// (PlanPipeline).
func (cfg *Config) prepare() (gpu.CostModel, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return gpu.CostModel{}, err
	}
	return gpu.NewCostModel(cfg.Model, cfg.GPU), nil
}

// PlanPipeline prepares cfg and plans one stage per GPU in cfg.Topo, as
// RunPipeline does: the cost model, each stage's layers and their KV
// capacity in tokens.
func PlanPipeline(cfg *Config) (cost gpu.CostModel, stageLayers []int, kvCap int64, err error) {
	if cost, err = cfg.prepare(); err != nil {
		return
	}
	stageLayers, kvCap, err = cfg.stages(&cost, cfg.Topo.GPUs(), "")
	return
}

// HopTime prices a batch of tokens' activations over topology hop i, from
// stage i to stage i+1: the chain's transfer and the live pipeline's.
func (cfg *Config) HopTime(i, tokens int) time.Duration {
	return cfg.Topo.Hop(i).TransferTime(int64(tokens) * cfg.Model.ActivationBytesPerToken())
}

// Stages is a row of exclusive pipeline stages on one clock, each a FIFO
// server in booking order: the chain books a stage when the activations
// arrive, runtime's driver books every stage at injection.
type Stages struct {
	Free     []time.Duration                     // when each stage is next free
	Layers   []int                               // each stage's share of the model's layers
	Busy     []time.Duration                     // each stage's booked execute time
	Transfer []time.Duration                     // each stage's booked outgoing hop time
	First    int                                 // stage 0's topology index: its span lane and hop
	Spans    *obs.Recorder                       // records the exec and hop windows
	Hop      func(hop, tokens int) time.Duration // prices an activation transfer; nil: free
	Fault    func(stage, seq int) time.Duration  // live only, when set: a window's extra delay
	Scale    func(time.Duration) time.Duration   // live only, when set: modelled time to wall time
}

// Book opens stage i's window for batch seq of tokens, priced unit per
// layer, whose activations arrive at at: it starts at the later of at and
// when the stage is free, pushed back by Fault, and lasts Layers[i] × unit,
// added to Busy[i]. It records the exec span and, before the last stage,
// the hop span, added to Transfer[i], and returns when the activations
// reach stage i+1 — after the last stage, when the window ends.
func (p *Stages) Book(i, seq, tokens int, at, unit time.Duration) time.Duration {
	exec := p.scale(time.Duration(p.Layers[i]) * unit)
	start := max(at, p.Free[i])
	if p.Fault != nil {
		start += max(p.Fault(i, seq), 0)
	}
	end := start + exec
	p.Free[i] = end
	p.Busy[i] += exec
	lane := p.First + i
	p.Spans.Record(lane, obs.KindExec, seq, tokens, start, end)
	if i+1 == len(p.Free) {
		return end
	}
	next := end
	if p.Hop != nil {
		next += p.scale(p.Hop(lane, tokens))
	}
	p.Transfer[i] += next - end
	p.Spans.Record(lane, obs.KindXfer, seq, tokens, end, next)
	return next
}

func (p *Stages) scale(d time.Duration) time.Duration {
	if p.Scale == nil {
		return d
	}
	return p.Scale(d)
}

// stages splits cfg.Model over depth stages and sizes the KV cache the
// weights leave them; where names the replica in a capacity error.
func (cfg *Config) stages(cost *gpu.CostModel, depth int, where string) ([]int, int64, error) {
	if depth > cfg.Model.NumLayers {
		return nil, 0, fmt.Errorf("engine: pipeline depth %d exceeds %d layers", depth, cfg.Model.NumLayers)
	}
	layers := cfg.Model.StageLayers(depth)
	kvCap := cost.KVCapacityTokensPP(layers, cfg.MemUtil)
	if kvCap < KVBlockSize {
		return nil, 0, fmt.Errorf("engine: %s on %d x %s%s (KV capacity %d tokens): %w",
			cfg.Model.Name, depth, cfg.GPU.Name, where, kvCap, ErrModelDoesNotFit)
	}
	return layers, kvCap, nil
}

// Step is one scheduler pool's fill/retire protocol over micro-batch slots
// S: the pool, its scheduler, the observer cfg.Observer built for it and
// the slots with no batch in flight. A nil observer costs a nil check.
type Step[S any] struct {
	Pool    *sched.Pool
	sched   sched.Scheduler
	obs     BatchObserver
	free    []S
	retired func(b *sched.Batch, finished []*request.Request) // the caller's per-member work
}

// NewStep builds a pool over kvCap tokens of KV cache, len(slots) deep,
// with cfg's prefix-cache and CPP flags and observer, scheduled by s.
func NewStep[S any](cfg *Config, kvCap int64, s sched.Scheduler, slots []S,
	retired func(b *sched.Batch, finished []*request.Request)) *Step[S] {
	st := &Step[S]{Pool: sched.NewPool(kvcache.New(kvCap, KVBlockSize), len(slots)), sched: s, free: slots, retired: retired}
	st.Pool.EnablePrefixCache = cfg.EnablePrefixCache
	st.Pool.AllowPipelinedChunks = cfg.EnableCPP
	if cfg.Observer != nil {
		st.obs = cfg.Observer(st.Pool, s)
	}
	return st
}

// Free is the number of slots with no batch in flight.
func (st *Step[S]) Free() int { return len(st.free) }

// Schedule fills a free slot under BeforeSchedule and AfterSchedule. The
// batch is nil when no slot is free or it came back empty (recycled); err
// is the observer's first violation.
func (st *Step[S]) Schedule(now time.Duration) (slot S, b *sched.Batch, err error) {
	if len(st.free) == 0 {
		return slot, nil, nil
	}
	if st.obs != nil {
		st.obs.BeforeSchedule(now)
	}
	b = st.sched.Schedule(st.Pool, now)
	if st.obs != nil {
		st.obs.AfterSchedule(b, now)
		err = st.obs.Err()
	}
	if b.Empty() {
		st.Pool.PutBatch(b)
		return slot, nil, err
	}
	slot = st.free[len(st.free)-1]
	st.free = st.free[:len(st.free)-1]
	return slot, b, err
}

// Retire commits b, which left the hardware on slot: Pool.Complete, the
// per-member work, AfterComplete, then b is recycled and the slot freed.
func (st *Step[S]) Retire(slot S, b *sched.Batch, now time.Duration) (err error) {
	finished := st.Pool.Complete(b, now)
	st.retired(b, finished)
	if st.obs != nil {
		st.obs.AfterComplete(b, finished, now)
		err = st.obs.Err()
	}
	st.Pool.PutBatch(b)
	st.free = append(st.free, slot)
	return err
}

// Final closes the observer's audit once the pool has run dry.
func (st *Step[S]) Final(now time.Duration) error {
	if st.obs == nil {
		return nil
	}
	return st.obs.Final(now)
}

package engine

import (
	"fmt"

	"gllm/internal/kvcache"
	"gllm/internal/obs"
	"gllm/internal/request"
	"gllm/internal/sched"
	"gllm/internal/workload"
)

// Prefill/decode disaggregation (Splitwise, DistServe — the architectures
// the paper positions against, §1–§2): the GPUs split into a prefill
// replica and a decode replica, each a full-model pipeline, connected by a
// KV-cache transfer link. The paper's criticisms become measurable here:
// the prefill:decode GPU ratio must be tuned per workload, imbalance
// persists within each side, and the KV hand-off burns bandwidth.

// DisaggConfig extends Config with the GPU split.
type DisaggConfig struct {
	Config
	// PrefillGPUs of the topology's devices form the prefill replica; the
	// rest decode. Must leave at least one GPU on each side.
	PrefillGPUs int
}

// disagg is the hand-off between the two replica loops of one run.
type disagg struct {
	prefill, decode *loop
	boundary        int // the hop between the replicas: stage PrefillGPUs-1

	// staging holds requests whose KV transfer completed but whose decode
	// replica allocation did not fit yet.
	staging []*request.Request
}

// RunDisaggregated simulates the trace on a disaggregated deployment: two
// stage chains on one clock, arrivals entering the prefill replica.
func RunDisaggregated(cfg DisaggConfig, items []workload.Item) (*Result, error) {
	// Where this engine departs from the other three (DESIGN.md §9; pinned by
	// the golden digests): each replica schedules with Sarathi — the policy
	// these systems employ — at 2048/4096 tokens whatever cfg.Scheduler is,
	// no prep is charged, the pools are built without prefix cache or CPP,
	// and the Result reports no single KV capacity.
	cfg.Scheduler = sched.NewSarathi(2048) // satisfies validate; never scheduled
	cfg.Runtime = RuntimeModel{Name: cfg.Runtime.Name}
	cfg.EnablePrefixCache, cfg.EnableCPP = false, false
	r, err := newRun(&cfg.Config, cfg.Topo.GPUs())
	if err != nil {
		return nil, err
	}
	total := cfg.Topo.GPUs()
	if cfg.PrefillGPUs < 1 || cfg.PrefillGPUs >= total {
		return nil, fmt.Errorf("engine: disaggregation needs 1..%d prefill GPUs, got %d", total-1, cfg.PrefillGPUs)
	}
	depthP, depthD := cfg.PrefillGPUs, total-cfg.PrefillGPUs

	d := &disagg{boundary: cfg.PrefillGPUs - 1}
	replica := func(name string, first, depth, budget int) (*loop, error) {
		layers, kvCap, err := cfg.stages(&r.cost, depth, ", "+name+" replica")
		if err != nil {
			return nil, err
		}
		return r.addLoop(kvCap, depth, sched.NewSarathi(budget), newChain(r, first, layers)), nil
	}
	if d.prefill, err = replica("prefill", 0, depthP, 2048); err != nil {
		return nil, err
	}
	if d.decode, err = replica("decode", depthP, depthD, 4096); err != nil {
		return nil, err
	}
	d.prefill.migrate = d.migrate
	r.admit = d.drainStaging

	return r.serve(items, fmt.Sprintf("disagg-%dp%dd", depthP, depthD), 0)
}

// migrate releases the requests that completed prefill in b, ships their KV
// over the boundary hop and stages them for the decode replica to adopt.
func (d *disagg) migrate(b *sched.Batch) {
	r := d.prefill.run
	for _, c := range b.Chunks {
		req := c.Req
		if req.State() != request.StateDecoding || req.DecodeBusy() {
			continue
		}
		id := kvcache.SeqID(req.ID)
		d.prefill.Pool.ReleaseDecoding(req)
		// The released sequence's blocks stay resident on the prefill side
		// until the transfer lands.
		markExternal(d.prefill.obs, id)
		kvBytes := int64(req.ContextLen()) * r.cfg.Model.KVBytesPerToken()
		xfer := r.cfg.Topo.Hop(d.boundary).TransferTime(kvBytes)
		now := r.eng.Now()
		r.cfg.Spans.Record(d.boundary, obs.KindXfer, int(req.ID), req.ContextLen(), now, now+xfer)
		r.transfer[d.boundary] += xfer
		r.kvTransfers++
		r.kvTransferBytes += kvBytes
		r.eng.After(xfer, func() {
			d.prefill.Pool.KV.Free(id)
			unmarkExternal(d.prefill.obs, id)
			d.staging = append(d.staging, req)
			r.refill(d.prefill)
		})
	}
}

// drainStaging admits transferred requests whose context fits the decode
// replica's KV (pull-based admission, like DistServe).
func (d *disagg) drainStaging() {
	kept := d.staging[:0]
	for _, req := range d.staging {
		if d.decode.Pool.KV.TryAllocate(kvcache.SeqID(req.ID), req.ContextLen()) {
			d.decode.Pool.AdoptDecoding(req)
		} else {
			kept = append(kept, req)
		}
	}
	d.staging = kept
}

package sched

import (
	"fmt"
	"time"

	"gllm/internal/request"
)

// VirtualEngines models vLLM's actual pipeline-parallel scheduler layout:
// the engine runs one *virtual engine* per micro-batch slot, each with its
// own Sarathi scheduler, and requests are statically assigned to a virtual
// engine at admission (round-robin). Compared to the greedy global Sarathi
// (this package's Sarathi), static partitioning prevents one micro-batch
// from hoovering up every decode, but cannot rebalance when assignments
// turn out uneven — the paper's Figure 8 imbalance in another guise.
type VirtualEngines struct {
	// Budget is each virtual engine's Sarathi token budget.
	Budget int
	// Engines is the number of virtual engines (normally the pipeline
	// depth).
	Engines int

	next int    // which engine schedules next (drives the slot rotation)
	base uint64 // the stamps (base, base+Engines] are this scheduler's alone
	rr   int    // round-robin admission cursor
}

// stamp is the request.SchedStamp of the requests assigned to engine e.
func (v *VirtualEngines) stamp(e int) uint64 { return v.base + 1 + uint64(e) }

// NewVirtualEngines returns the vLLM-layout scheduler.
func NewVirtualEngines(budget, engines int) *VirtualEngines {
	if budget < 1 || engines < 1 {
		panic(fmt.Sprintf("sched: virtual engines budget=%d engines=%d", budget, engines))
	}
	n := uint64(engines)
	return &VirtualEngines{Budget: budget, Engines: engines, base: batchEpoch.Add(n) - n}
}

// Name implements Scheduler.
func (v *VirtualEngines) Name() string { return "vllm-ve" }

// Schedule implements Scheduler: the next virtual engine in rotation builds
// a Sarathi batch over ITS requests only.
func (v *VirtualEngines) Schedule(p *Pool, now time.Duration) *Batch {
	// Admit unassigned requests round-robin.
	for _, r := range p.PrefillQueue() {
		if r.SchedStamp < v.stamp(0) || r.SchedStamp > v.stamp(v.Engines-1) {
			r.SchedStamp = v.stamp(v.rr % v.Engines)
			v.rr++
		}
	}

	// Try each engine starting from the rotation cursor; the first engine
	// with work fills this micro-batch slot (an idle engine must not stall
	// the others).
	for attempt := 0; attempt < v.Engines; attempt++ {
		e := (v.next + attempt) % v.Engines
		stamp := v.stamp(e)
		mine := func(r *request.Request) bool { return r.SchedStamp == stamp }
		b := p.GetBatch()
		p.buildDecode(b, v.Budget, mine)
		if rest := v.Budget - b.DecodeTokens(); rest > 0 {
			p.buildPrefill(b, p.prefillQ, rest, now, mine, false)
		}
		if !b.Empty() {
			v.next = (e + 1) % v.Engines
			return b
		}
		p.PutBatch(b)
	}
	return p.GetBatch()
}

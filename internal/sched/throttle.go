package sched

import (
	"fmt"
	"time"

	"gllm/internal/core"
)

// Throttle is the gLLM Token Throttling scheduler (§3.1–§3.2): prefill and
// decode token counts are budgeted independently from real-time feedback —
// pending prefill volume, KV-cache free rate, and the decode population
// spread over the pipeline depth — instead of a coupled fixed budget.
type Throttle struct {
	Params  core.Params
	Variant core.Variant
}

// NewThrottle returns the gLLM scheduler with the given hyperparameters and
// ablation variant.
func NewThrottle(params core.Params, variant core.Variant) *Throttle {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	return &Throttle{Params: params, Variant: variant}
}

// NewDefaultThrottle returns the paper's evaluated configuration
// (#T=8, #MaxP=2048, #MinP=32, KV_thresh=0.05, full policy).
func NewDefaultThrottle() *Throttle {
	return NewThrottle(core.DefaultParams(), core.VariantFull)
}

// Name implements Scheduler.
func (t *Throttle) Name() string {
	if t.Variant == core.VariantFull {
		return "gllm"
	}
	return "gllm-" + t.Variant.String()
}

// Schedule implements Scheduler. Decode sequences are spread evenly over
// the pipeline depth (eq. 4); prefill tokens follow eq. 3 under the
// configured ablation variant. The two are merged into one micro-batch.
func (t *Throttle) Schedule(p *Pool, now time.Duration) *Batch {
	st := p.CoreState()
	b := p.GetBatch()
	p.buildDecode(b, t.Params.DecodeBudget(st), nil)
	budget := t.Params.PrefillBudget(st, t.Variant)
	if budget == 0 && st.WaitingPrefillTokens > 0 && p.stalled(b) {
		// The KV gate suspends prefill to protect running decodes. With
		// none running and nothing in flight it protects nothing and would
		// hold the pool still forever, so prefill falls back to eq. 1.
		budget = t.Params.PrefillBudgetWT(st.WaitingPrefillTokens)
	}
	if budget > 0 {
		p.buildPrefill(b, p.prefillQ, budget, now, nil, false)
	}
	return b
}

// ByName constructs a scheduler from its CLI name:
//
//	"sarathi"      — Sarathi-Serve with the given token budget
//	"vllm-ve"      — vLLM virtual-engine layout (static request partition)
//	"gllm"         — Token Throttling, full policy
//	"gllm-no-wt"   — ablation without the waiting-tokens term
//	"gllm-no-ut"   — ablation without the KV-utilization term
//	"gllm-ck"      — gLLM runtime with the coupled Sarathi policy (w/ CK)
func ByName(name string, budget int, params core.Params) (Scheduler, error) {
	switch name {
	case "sarathi", "gllm-ck":
		return NewSarathi(budget), nil
	case "vllm-ve":
		// vLLM's virtual-engine layout; sized for the common 4-stage
		// deployments (the engine rotates one slot per micro-batch).
		return NewVirtualEngines(budget, 4), nil
	case "td-pipe":
		return NewTDPipe(budget, 4), nil
	case "orca":
		return NewOrca(256), nil
	case "batch-level":
		return NewBatchLevel(64), nil
	case "gllm":
		return NewThrottle(params, core.VariantFull), nil
	case "gllm-no-wt":
		return NewThrottle(params, core.VariantNoWT), nil
	case "gllm-no-ut":
		return NewThrottle(params, core.VariantNoUT), nil
	}
	return nil, fmt.Errorf("sched: unknown scheduler %q", name)
}

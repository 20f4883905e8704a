package sched

import (
	"fmt"
	"time"

	"gllm/internal/core"
	"gllm/internal/model"
	"gllm/internal/request"
)

// Throttle is the gLLM Token Throttling scheduler (§3.1–§3.2): prefill and
// decode token counts are budgeted independently from real-time feedback —
// pending prefill volume, KV-cache free rate, and the decode population
// spread over the pipeline depth — instead of a coupled fixed budget.
type Throttle struct {
	Params  core.Params
	Variant core.Variant

	// CtxWeight enables attention-aware cost estimation — the paper's §6
	// first future-work item ("incorporate the context length of each
	// sequence to enable more accurate estimation of forward pass time").
	// A decode step over context L is priced at 1 + CtxWeight·L
	// token-equivalents and the decode budget balances equivalents instead
	// of raw token counts. Zero (the default) reproduces the paper's
	// time ∝ tokens assumption.
	CtxWeight float64
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

// NewCostAwareThrottle returns the gLLM scheduler with attention-aware
// decode balancing calibrated for the model: the context weight is the
// ratio of per-context-token attention FLOPs (4·heads·headDim) to
// per-token projection FLOPs (2·active params).
func NewCostAwareThrottle(params core.Params, m model.Config) *Throttle {
	t := NewThrottle(params, core.VariantFull)
	t.CtxWeight = 2 * float64(m.NumHeads) * float64(m.HeadDim) /
		float64(m.ActiveParamsPerTokenPerLayer())
	return t
}

// decodeWeight prices one decode step of r in token-equivalents.
func (t *Throttle) decodeWeight(r *request.Request) float64 {
	return 1 + t.CtxWeight*float64(r.ContextLen())
}

// Schedule implements Scheduler. Decode tokens are spread evenly over the
// pipeline depth (eq. 4) — by raw count, or by estimated cost when
// CtxWeight is set; prefill tokens follow eq. 3 under the configured
// ablation variant. The two are merged into one micro-batch.
func (t *Throttle) Schedule(p *Pool, now time.Duration) *Batch {
	st := p.CoreState()
	b := p.GetBatch()
	if t.CtxWeight > 0 {
		total := 0.0
		for _, r := range p.Decoding() {
			total += t.decodeWeight(r)
		}
		p.buildDecode(b, total/float64(p.Depth), t.decodeWeight, nil)
	} else {
		p.buildDecode(b, float64(t.Params.DecodeBudget(st)), nil, nil)
	}
	budget := t.Params.PrefillBudget(st, t.Variant)
	if budget == 0 && st.WaitingPrefillTokens > 0 && p.stalled(b) {
		// The KV gate suspends prefill to protect running decodes. With
		// none running and nothing in flight it protects nothing and would
		// hold the pool still forever, so prefill falls back to eq. 1.
		budget = t.Params.PrefillBudgetWT(st.WaitingPrefillTokens)
	}
	if budget > 0 {
		p.buildPrefill(b, budget, now, nil, false)
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

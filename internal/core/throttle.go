// Package core implements the gLLM paper's primary contribution: the Token
// Throttling policy (§3.1–§3.2). Given real-time feedback from the serving
// system — tokens awaiting prefill, KV-cache free rate, running decode
// sequences, pipeline depth — the policy independently budgets the prefill
// and decode tokens of the next micro-batch:
//
//	WT (eq. 1):  #P = min(max(#WP/#T, #MinP), #MaxP)
//	UT (eq. 2):  #P = max(#MaxP × KV_free, #MinP)
//	combined (eq. 3, when KV_free ≥ KV_thresh):
//	             #P = max(min(#WP/#T, #MaxP × (KV_free−KV_thresh)/(1−KV_thresh)), #MinP)
//	decode (eq. 4): #D = #RD / #PP_depth
//
// The package is pure computation so the same policy drives both the
// discrete-event engine and the concurrent runtime.
package core

import (
	"fmt"
	"math"
)

// Params are the Token Throttling hyperparameters. The paper's evaluation
// defaults are provided by DefaultParams (#T=8, #MaxP=2048, #MinP=32,
// KV_thresh=0.05).
type Params struct {
	// IterT (#T) is the number of iterations over which pending prefill
	// tokens are spread (WT smoothing horizon).
	IterT int
	// MaxP (#MaxP) is the per-batch prefill token ceiling.
	MaxP int
	// MinP (#MinP) is the per-batch prefill token floor (when anything is
	// waiting and the KV gate is open).
	MinP int
	// KVThresh is the KV-cache idle-rate threshold below which prefill is
	// suspended to protect running decodes from preemption.
	KVThresh float64
}

// DefaultParams returns the paper's evaluated setting.
func DefaultParams() Params {
	return Params{IterT: 8, MaxP: 2048, MinP: 32, KVThresh: 0.05}
}

// Validate reports a descriptive error for out-of-domain parameters.
func (p Params) Validate() error {
	switch {
	case p.IterT < 1:
		return fmt.Errorf("core: IterT = %d, want >= 1", p.IterT)
	case p.MaxP < 1:
		return fmt.Errorf("core: MaxP = %d, want >= 1", p.MaxP)
	case p.MinP < 1:
		return fmt.Errorf("core: MinP = %d, want >= 1", p.MinP)
	case p.MinP > p.MaxP:
		return fmt.Errorf("core: MinP %d > MaxP %d", p.MinP, p.MaxP)
	case !(p.KVThresh >= 0 && p.KVThresh < 1): // NaN fails too
		return fmt.Errorf("core: KVThresh = %g, want in [0,1)", p.KVThresh)
	}
	return nil
}

// State is the real-time system feedback the policy throttles on. The
// driver worker collects it at the start of every schedule.
type State struct {
	// WaitingPrefillTokens (#WP) is the total remaining prefill tokens
	// across all waiting/partially-prefilled requests.
	WaitingPrefillTokens int
	// KVFreeRate (KV_free) is the fraction of KV-cache blocks free, in [0,1].
	KVFreeRate float64
	// RunningDecode (#RD) is the number of sequences currently in the
	// decode phase (each contributes one decode token per iteration).
	RunningDecode int
	// PipelineDepth (#PP_depth) is the number of pipeline stages, i.e. the
	// maximum number of concurrently in-flight micro-batches.
	PipelineDepth int
}

func (s State) validate() {
	if s.WaitingPrefillTokens < 0 || s.RunningDecode < 0 {
		panic(fmt.Sprintf("core: negative state %+v", s))
	}
	if !(s.KVFreeRate >= 0 && s.KVFreeRate <= 1) {
		panic(fmt.Sprintf("core: KVFreeRate %g out of [0,1]", s.KVFreeRate))
	}
	if s.PipelineDepth < 1 {
		panic(fmt.Sprintf("core: PipelineDepth %d", s.PipelineDepth))
	}
}

// Variant selects which throttling terms are active — the paper's ablation
// axes (§4.5).
type Variant int

// Ablation variants.
const (
	// VariantFull applies eq. 3: WT and UT combined with the threshold gate.
	VariantFull Variant = iota
	// VariantNoWT drops the waiting-tokens term (gLLM w/o WT): prefill is
	// throttled only by KV utilization.
	VariantNoWT
	// VariantNoUT drops the KV-utilization term and threshold (gLLM w/o
	// UT): prefill is throttled only by the waiting-token horizon.
	VariantNoUT
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantFull:
		return "full"
	case VariantNoWT:
		return "no-wt"
	case VariantNoUT:
		return "no-ut"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// PrefillBudgetWT applies eq. 1 in isolation: spread the waiting tokens
// over #T iterations, clamped to [MinP, MaxP]. Zero waiting tokens budget
// zero.
func (p Params) PrefillBudgetWT(waiting int) int {
	if waiting <= 0 {
		return 0
	}
	b := ceilDiv(waiting, p.IterT)
	if b < p.MinP {
		b = p.MinP
	}
	if b > p.MaxP {
		b = p.MaxP
	}
	return min(b, waiting)
}

// PrefillBudget computes the batched prefill token count for the next
// micro-batch under the given ablation variant. It returns 0 when nothing
// waits, and (for variants with UT) when the KV idle rate is at or below
// the threshold — the eq. 3 safeguard. The result never exceeds the
// waiting token count.
func (p Params) PrefillBudget(st State, v Variant) int {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	st.validate()
	if st.WaitingPrefillTokens == 0 {
		return 0
	}
	var b int
	switch v {
	case VariantNoUT:
		// eq. 1 only.
		return p.PrefillBudgetWT(st.WaitingPrefillTokens)
	case VariantNoWT:
		// eq. 2 with the threshold gate of §3.1.3: prefill is suspended at
		// or below the threshold (at equality the scaled term is zero, and
		// flooring it to MinP would defeat the decode-protection gate).
		if st.KVFreeRate <= p.KVThresh {
			return 0
		}
		scaled := float64(p.MaxP) * (st.KVFreeRate - p.KVThresh) / (1 - p.KVThresh)
		b = int(math.Floor(scaled))
		if b < p.MinP {
			b = p.MinP
		}
	case VariantFull:
		// eq. 3, with the same at-or-below suspension gate.
		if st.KVFreeRate <= p.KVThresh {
			return 0
		}
		wt := float64(ceilDiv(st.WaitingPrefillTokens, p.IterT))
		ut := float64(p.MaxP) * (st.KVFreeRate - p.KVThresh) / (1 - p.KVThresh)
		b = int(math.Floor(math.Min(wt, ut)))
		if b < p.MinP {
			b = p.MinP
		}
	default:
		panic(fmt.Sprintf("core: unknown variant %d", int(v)))
	}
	return min(b, st.WaitingPrefillTokens)
}

// DecodeBudget computes the batched decode token count for the next
// micro-batch (eq. 4): spread the running decode sequences evenly across
// the pipeline depth. The ceiling keeps the residue batches from starving
// (e.g. 10 sequences over depth 4 batch as 3/3/3/1 rather than 2/2/2/4).
func (p Params) DecodeBudget(st State) int {
	st.validate()
	if st.RunningDecode == 0 {
		return 0
	}
	return ceilDiv(st.RunningDecode, st.PipelineDepth)
}

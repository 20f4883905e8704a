package sched

import "gllm/internal/core"

// TokenBounded is implemented by schedulers whose per-iteration batch token
// total obeys a computable bound given the pre-schedule pool state. The
// invariant checker (internal/invariant) snapshots core.State immediately
// before Schedule and asserts Batch.Tokens() <= BatchTokenBound(state) after
// it. A negative bound means "unbounded" (the policy has no per-batch token
// cap) and disables the check.
type TokenBounded interface {
	BatchTokenBound(st core.State) int
}

// FIFOPrefill is implemented by schedulers that promise first-come
// first-served prefill admission: a request later in the prefill queue never
// receives a chunk while an earlier, eligible request goes unserved in the
// same batch. The invariant checker enforces the promise.
type FIFOPrefill interface {
	PrefillFIFO() bool
}

// BatchTokenBound implements TokenBounded: Sarathi couples decode and
// chunked prefill under one fixed budget, so the batch never exceeds it.
func (s *Sarathi) BatchTokenBound(core.State) int { return s.Budget }

// PrefillFIFO implements FIFOPrefill.
func (s *Sarathi) PrefillFIFO() bool { return true }

// BatchTokenBound implements TokenBounded: prefill follows eq. 3 for the
// configured variant; decode follows eq. 4, and never exceeds the decode
// population, since each sequence contributes one token.
func (t *Throttle) BatchTokenBound(st core.State) int {
	decode := min(st.RunningDecode, t.Params.DecodeBudget(st))
	prefill := t.Params.PrefillBudget(st, t.Variant)
	if prefill <= 0 {
		// Either the batch is decodes only, or nothing decodes and the
		// stalled-pool fallback runs eq. 1 alone.
		return max(decode, t.Params.PrefillBudgetWT(st.WaitingPrefillTokens))
	}
	return prefill + decode
}

// PrefillFIFO implements FIFOPrefill.
func (t *Throttle) PrefillFIFO() bool { return true }

// BatchTokenBound implements TokenBounded: each virtual engine runs Sarathi
// under its own fixed budget, and exactly one engine fills a micro-batch.
func (v *VirtualEngines) BatchTokenBound(core.State) int { return v.Budget }

// BatchTokenBound implements TokenBounded: a prefill-phase batch is bounded
// by the prefill budget, a decode-phase batch by the even share of the
// decode population; phase-boundary fallthroughs build one or the other,
// never both.
func (t *TDPipe) BatchTokenBound(st core.State) int {
	share := 0
	if st.RunningDecode > 0 {
		share = (st.RunningDecode + t.MinDecode - 1) / t.MinDecode
	}
	if t.Budget > share {
		return t.Budget
	}
	return share
}

// PrefillFIFO implements FIFOPrefill: both phases admit prefill chunks in
// queue order.
func (t *TDPipe) PrefillFIFO() bool { return true }

// BatchTokenBound implements TokenBounded: Orca caps sequences, not tokens —
// a whole-prompt admission can be arbitrarily large.
func (o *Orca) BatchTokenBound(core.State) int { return -1 }

// BatchTokenBound implements TokenBounded: batch-level scheduling admits
// whole cohorts with no token cap.
func (s *BatchLevel) BatchTokenBound(core.State) int { return -1 }

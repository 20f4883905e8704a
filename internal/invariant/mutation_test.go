package invariant

import (
	"errors"
	"testing"

	"gllm/internal/invariant/mutant"
	"gllm/internal/sched"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// The mutation self-tests prove the detector detects: each mutant plants
// one specific scheduler bug, and the harness must flag exactly that
// invariant on an ordinary randomized workload. The live runtime's tests
// plant the same mutants (internal/runtime, TestLiveMutantsDetected).

// detectOnEveryLoop plants one mutant under each engine whose scheduler the
// caller chooses — pipeline (depth slots), tensor and tokenpar (one slot) —
// and demands the named invariant from all three. The disaggregated engine
// fixes its replicas' policy, so no mutant can reach it.
func detectOnEveryLoop(t *testing.T, seed uint64, invariant string, mk func() sched.Scheduler) {
	t.Helper()
	items := Workload(stats.NewRNG(seed), 120, 96, 48)
	for _, eng := range []string{"pipeline", "tensor", "tokenpar"} {
		t.Run(eng, func(t *testing.T) {
			_, err := RunCombo(Combo{Engine: eng, Make: mk}, items)
			wantViolation(t, err, invariant)
		})
	}
}

func wantViolation(t *testing.T, err error, invariant string) Violation {
	t.Helper()
	if err == nil {
		t.Fatalf("mutant escaped: no violation reported, want %s", invariant)
	}
	var v Violation
	if !errors.As(err, &v) {
		t.Fatalf("mutant failed with a non-violation error: %v", err)
	}
	if v.Invariant != invariant {
		t.Fatalf("mutant flagged as %s (%s), want %s", v.Invariant, v.Detail, invariant)
	}
	return v
}

func TestMutationOverBudgetDetected(t *testing.T) {
	detectOnEveryLoop(t, 11, InvBatchBudget, mutant.OverBudget)
}

func TestMutationKVLeakDetected(t *testing.T) {
	detectOnEveryLoop(t, 12, InvKVOwnership, mutant.KVLeaker)
}

func TestMutationFIFOReorderDetected(t *testing.T) {
	detectOnEveryLoop(t, 13, InvPrefillFIFO, mutant.FIFOBreaker)
}

func TestMutationForgottenWaitingPrefillDetected(t *testing.T) {
	// A 32-token budget splits most prompts into several chunks, so a
	// mid-prefill request between chunks exists within the first batches.
	detectOnEveryLoop(t, 14, InvWaitingPrefill, mutant.WPForgetter)
}

// TestShrinkMinimizesMutantTrace: the FIFO mutant's 120-request failing
// trace shrinks to a handful of requests that still reproduce it.
func TestShrinkMinimizesMutantTrace(t *testing.T) {
	combo := Combo{Engine: "pipeline", Make: mutant.FIFOBreaker}
	items := Workload(stats.NewRNG(13), 120, 96, 48)
	_, orig := RunCombo(combo, items)
	wantViolation(t, orig, InvPrefillFIFO)

	min := Shrink(items, func(cand []workload.Item) bool {
		_, err := RunCombo(combo, cand)
		return sameFailure(orig, err)
	})
	if _, err := RunCombo(combo, min); err == nil {
		t.Fatalf("shrunken trace of %d requests no longer reproduces", len(min))
	}
	if len(min) >= len(items) {
		t.Fatalf("shrink made no progress: %d -> %d requests", len(items), len(min))
	}
	if len(min) > 8 {
		t.Errorf("reproducer larger than expected: %d requests (the bug needs only 2)", len(min))
	}
	t.Logf("shrunk %d -> %d requests: %+v", len(items), len(min), min)
}

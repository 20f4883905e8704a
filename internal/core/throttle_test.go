package core

import (
	"math"
	"testing"
	"testing/quick"
)

func st(wp int, kvFree float64, rd, depth int) State {
	return State{
		WaitingPrefillTokens: wp,
		KVFreeRate:           kvFree,
		RunningDecode:        rd,
		PipelineDepth:        depth,
	}
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if p.IterT != 8 || p.MaxP != 2048 || p.MinP != 32 || p.KVThresh != 0.05 {
		t.Fatalf("defaults = %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Params{
		{IterT: 0, MaxP: 10, MinP: 1},
		{IterT: 1, MaxP: 0, MinP: 1},
		{IterT: 1, MaxP: 10, MinP: 0},
		{IterT: 1, MaxP: 10, MinP: 20},
		{IterT: 1, MaxP: 10, MinP: 1, KVThresh: -0.1},
		{IterT: 1, MaxP: 10, MinP: 1, KVThresh: 1.0},
		// Flag values that no ordered comparison catches (0 is a valid
		// KV_thresh; the integer fields' 0 rows are above).
		{IterT: 1, MaxP: 10, MinP: 1, KVThresh: math.NaN()},
		{IterT: 1, MaxP: 10, MinP: 1, KVThresh: math.Inf(1)},
		{IterT: 1, MaxP: 10, MinP: 1, KVThresh: math.Inf(-1)},
		{IterT: 1, MaxP: 10, MinP: 1, KVThresh: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d validated: %+v", i, p)
		}
	}
}

func TestPrefillBudgetWTEquation1(t *testing.T) {
	p := DefaultParams()
	// #WP/#T inside [MinP, MaxP]: 8000/8 = 1000.
	if got := p.PrefillBudgetWT(8000); got != 1000 {
		t.Fatalf("WT(8000) = %d, want 1000", got)
	}
	// Below MinP: clamps up to MinP (100/8 = 13 -> 32), still under waiting.
	if got := p.PrefillBudgetWT(100); got != 32 {
		t.Fatalf("WT(100) = %d, want 32 (MinP clamp)", got)
	}
	if got := p.PrefillBudgetWT(10); got != 10 {
		t.Fatalf("WT(10) = %d, want 10", got)
	}
	// Above MaxP: clamps down.
	if got := p.PrefillBudgetWT(1_000_000); got != 2048 {
		t.Fatalf("WT(1M) = %d, want 2048", got)
	}
	if got := p.PrefillBudgetWT(0); got != 0 {
		t.Fatalf("WT(0) = %d", got)
	}
}

func TestPrefillBudgetFullEquation3(t *testing.T) {
	p := DefaultParams()
	// Plenty of KV, WT term limits: 8000/8 = 1000 < UT term 2048.
	if got := p.PrefillBudget(st(8000, 1.0, 0, 4), VariantFull); got != 1000 {
		t.Fatalf("full(kv=1.0) = %d, want 1000", got)
	}
	// KV pressure limits: UT term = 2048*(0.1-0.05)/0.95 = 107.78 -> 107.
	if got := p.PrefillBudget(st(80000, 0.1, 0, 4), VariantFull); got != 107 {
		t.Fatalf("full(kv=0.1) = %d, want 107", got)
	}
	// Below threshold: suspended entirely.
	if got := p.PrefillBudget(st(80000, 0.04, 0, 4), VariantFull); got != 0 {
		t.Fatalf("full(kv<thresh) = %d, want 0", got)
	}
	// Boundary: at exactly the threshold prefill is suspended too ("at or
	// below" — the scaled UT term is zero, not MinP).
	if got := p.PrefillBudget(st(80000, 0.05, 0, 4), VariantFull); got != 0 {
		t.Fatalf("full(kv=thresh) = %d, want 0", got)
	}
	// Just above the threshold the MinP floor applies again:
	// 2048*(0.06-0.05)/0.95 = 21.6 -> 21 -> MinP.
	if got := p.PrefillBudget(st(80000, 0.06, 0, 4), VariantFull); got != 32 {
		t.Fatalf("full(kv just above thresh) = %d, want MinP", got)
	}
	// Nothing waiting: zero regardless of KV.
	if got := p.PrefillBudget(st(0, 1.0, 10, 4), VariantFull); got != 0 {
		t.Fatalf("full(wp=0) = %d", got)
	}
}

func TestPrefillBudgetNeverExceedsWaiting(t *testing.T) {
	p := DefaultParams()
	for _, v := range []Variant{VariantFull, VariantNoWT, VariantNoUT} {
		if got := p.PrefillBudget(st(5, 1.0, 0, 4), v); got != 5 {
			t.Fatalf("%s: budget %d > waiting 5", v, got)
		}
	}
}

func TestVariantNoWTIgnoresWaitingVolume(t *testing.T) {
	p := DefaultParams()
	small := p.PrefillBudget(st(100_000, 0.5, 0, 4), VariantNoWT)
	large := p.PrefillBudget(st(1_000_000, 0.5, 0, 4), VariantNoWT)
	if small != large {
		t.Fatalf("NoWT budget depends on waiting volume: %d vs %d", small, large)
	}
	// UT with threshold: 2048*(0.5-0.05)/0.95 = 970.1 -> 970.
	if small != 970 {
		t.Fatalf("NoWT(0.5) = %d, want 970", small)
	}
	if got := p.PrefillBudget(st(100, 0.01, 0, 4), VariantNoWT); got != 0 {
		t.Fatalf("NoWT below threshold = %d", got)
	}
	// Boundary: suspended at exactly the threshold as well.
	if got := p.PrefillBudget(st(100, 0.05, 0, 4), VariantNoWT); got != 0 {
		t.Fatalf("NoWT at threshold = %d, want 0", got)
	}
}

func TestVariantNoUTIgnoresKV(t *testing.T) {
	p := DefaultParams()
	lo := p.PrefillBudget(st(8000, 0.01, 0, 4), VariantNoUT)
	hi := p.PrefillBudget(st(8000, 1.0, 0, 4), VariantNoUT)
	if lo != hi || lo != 1000 {
		t.Fatalf("NoUT budgets = %d/%d, want 1000/1000", lo, hi)
	}
}

func TestDecodeBudgetEquation4(t *testing.T) {
	p := DefaultParams()
	// 400 running over depth 4 -> 100 per micro-batch.
	if got := p.DecodeBudget(st(0, 1, 400, 4)); got != 100 {
		t.Fatalf("decode(400,4) = %d", got)
	}
	// Ceiling: 10 over 4 -> 3.
	if got := p.DecodeBudget(st(0, 1, 10, 4)); got != 3 {
		t.Fatalf("decode(10,4) = %d", got)
	}
	if got := p.DecodeBudget(st(0, 1, 0, 4)); got != 0 {
		t.Fatalf("decode(0,4) = %d", got)
	}
	// Depth 1: everything in one batch.
	if got := p.DecodeBudget(st(0, 1, 57, 1)); got != 57 {
		t.Fatalf("decode(57,1) = %d", got)
	}
}

func TestStateValidationPanics(t *testing.T) {
	p := DefaultParams()
	cases := []State{
		st(-1, 0.5, 0, 4),
		st(0, -0.1, 0, 4),
		st(0, 1.1, 0, 4),
		st(0, 0.5, -1, 4),
		st(0, 0.5, 0, 0),
	}
	for i, s := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			p.PrefillBudget(s, VariantFull)
		}()
	}
}

func TestInvalidParamsPanicInBudget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid params did not panic")
		}
	}()
	(Params{}).PrefillBudget(st(10, 1, 0, 4), VariantFull)
}

func TestUnknownVariantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown variant did not panic")
		}
	}()
	DefaultParams().PrefillBudget(st(10, 1, 0, 4), Variant(99))
}

func TestVariantString(t *testing.T) {
	if VariantFull.String() != "full" || VariantNoWT.String() != "no-wt" || VariantNoUT.String() != "no-ut" {
		t.Fatal("variant names wrong")
	}
	if Variant(9).String() == "" {
		t.Fatal("unknown variant name empty")
	}
}

// Property: the full budget is monotone in the KV free rate and never
// positive below the threshold.
func TestQuickFullBudgetMonotoneInKVFree(t *testing.T) {
	p := DefaultParams()
	f := func(wpRaw uint16, aRaw, bRaw uint8) bool {
		wp := int(wpRaw) + 1
		a := float64(aRaw) / 255
		b := float64(bRaw) / 255
		if a > b {
			a, b = b, a
		}
		ba := p.PrefillBudget(st(wp, a, 0, 4), VariantFull)
		bb := p.PrefillBudget(st(wp, b, 0, 4), VariantFull)
		if a <= p.KVThresh && ba != 0 {
			return false
		}
		return ba <= bb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: WT smoothing — scheduling the budget repeatedly drains any
// waiting pool within about IterT + ln(pool) iterations, and per-iteration
// budgets never exceed MaxP.
func TestQuickWTDrainsPool(t *testing.T) {
	p := DefaultParams()
	f := func(poolRaw uint32) bool {
		pool := int(poolRaw % 1_000_000)
		iters := 0
		for pool > 0 {
			b := p.PrefillBudget(st(pool, 1.0, 0, 4), VariantFull)
			if b <= 0 || b > p.MaxP || b > pool {
				return false
			}
			pool -= b
			iters++
			if iters > 10_000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: decode budgets across a depth's worth of disjoint batches cover
// all running sequences with batch-to-batch spread <= ceil residue.
func TestQuickDecodeBudgetBalances(t *testing.T) {
	p := DefaultParams()
	f := func(rdRaw uint16, depthRaw uint8) bool {
		rd := int(rdRaw % 4096)
		depth := int(depthRaw%8) + 1
		remaining := rd
		var batches []int
		for i := 0; i < depth && remaining > 0; i++ {
			b := p.DecodeBudget(st(0, 1, remaining, depth-i))
			// Re-deriving with shrinking depth emulates consuming slots.
			if b > remaining {
				return false
			}
			batches = append(batches, b)
			remaining -= b
		}
		if remaining != 0 && rd > 0 {
			return false
		}
		// All batches within ±1 of rd/depth rounded up, except possibly the
		// final residue batch.
		if len(batches) > 1 {
			first := batches[0]
			for _, b := range batches[:len(batches)-1] {
				if b > first+1 || b < first-1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

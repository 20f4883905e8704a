package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("stream diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64MeanApproxHalf(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) covered only %d values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(10, 20)
		if v < 10 || v > 20 {
			t.Fatalf("IntRange(10,20) = %d", v)
		}
	}
	if v := r.IntRange(5, 5); v != 5 {
		t.Fatalf("IntRange(5,5) = %d", v)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(13)
	const rate = 2.0
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := r.Exp(rate)
		if x < 0 {
			t.Fatalf("negative exponential sample %v", x)
		}
		sum += x
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("Exp(%v) mean = %v, want ~%v", rate, mean, 1/rate)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(17)
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("Norm variance = %v, want ~1", variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRNG(19)
	const mu, sigma = 5.0, 1.0
	xs := make([]float64, 50001)
	for i := range xs {
		xs[i] = r.LogNormal(mu, sigma)
	}
	s := Summarize(xs)
	// Median of lognormal is exp(mu).
	want := math.Exp(mu)
	if math.Abs(s.P50-want)/want > 0.05 {
		t.Fatalf("LogNormal median = %v, want ~%v", s.P50, want)
	}
}

func TestQuickFloat64AlwaysInRange(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := NewRNG(seed)
		for i := 0; i < int(n); i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExpNonNegative(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 64; i++ {
			if r.Exp(0.5) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

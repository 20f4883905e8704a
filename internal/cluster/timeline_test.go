package cluster

import (
	"testing"
	"time"

	"gllm/internal/runtime"
)

// newIdleTimeline builds a timeline whose background loop never fires
// (huge interval), so tests drive sampleOnce deterministically.
func newIdleTimeline(t *testing.T, r *Router, capacity int) *Timeline {
	t.Helper()
	tl := NewTimeline(r, time.Hour, capacity)
	t.Cleanup(tl.Stop)
	return tl
}

// Every sampling tick records one row per active replica, carrying the
// same pressure view routing sees.
func TestTimelineSamplesEveryReplica(t *testing.T) {
	engA := newFakeEngine(runtime.Pressure{KVFree: 0.5, Resident: 3, QueueLen: 2, Health: runtime.HealthOK})
	engB := newFakeEngine(runtime.Pressure{KVFree: 1, Health: runtime.HealthDraining})
	r := New(Config{Policy: NewRoundRobin(), Seed: 1})
	if _, err := r.Add("a", engA); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add("b", engB); err != nil {
		t.Fatal(err)
	}
	tl := newIdleTimeline(t, r, 16)

	// NewTimeline samples once synchronously at construction.
	samples := tl.Samples()
	if len(samples) != 2 {
		t.Fatalf("%d samples after construction, want 2", len(samples))
	}
	byID := map[string]TimelineSample{}
	for _, s := range samples {
		byID[s.Replica] = s
	}
	a := byID["a"]
	if a.KVFree != 0.5 || a.Resident != 3 || a.QueueLen != 2 || a.Health != runtime.HealthOK {
		t.Fatalf("sample a = %+v", a)
	}
	if byID["b"].Health != runtime.HealthDraining {
		t.Fatalf("sample b = %+v", byID["b"])
	}

	// Pressure changes surface on the next tick.
	engA.setPressure(runtime.Pressure{KVFree: 0.1, Resident: 9, Health: runtime.HealthOK})
	tl.sampleOnce(time.Now())
	samples = tl.Samples()
	last := samples[len(samples)-1]
	if last.Replica == "a" && last.KVFree != 0.1 {
		t.Fatalf("stale sample %+v", last)
	}
	if tl.Total() != 4 {
		t.Fatalf("total = %d, want 4", tl.Total())
	}
}

// A ring filled exactly to capacity retains every sample (Samples once
// returned none in this state), for each tick count that lands on it.
func TestTimelineFullAtCapacity(t *testing.T) {
	r := New(Config{Policy: NewRoundRobin(), Seed: 1})
	for _, id := range []string{"a", "b"} {
		if _, err := r.Add(id, newFakeEngine(okPressure())); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ capacity, ticks int }{
		{2, 1}, // the construction sample alone fills it
		{4, 2},
		{6, 3},
	} {
		tl := newIdleTimeline(t, r, tc.capacity)
		for i := 1; i < tc.ticks; i++ {
			tl.sampleOnce(time.Now())
		}
		if got := len(tl.Samples()); got != tc.capacity {
			t.Errorf("capacity %d after %d ticks: %d samples, want %d", tc.capacity, tc.ticks, got, tc.capacity)
		}
	}
}

// The ring drops oldest samples once full; Samples stays oldest-first
// and bounded by capacity while Total keeps counting.
func TestTimelineRingWraps(t *testing.T) {
	eng := newFakeEngine(okPressure())
	r := New(Config{Policy: NewRoundRobin(), Seed: 1})
	if _, err := r.Add("a", eng); err != nil {
		t.Fatal(err)
	}
	tl := newIdleTimeline(t, r, 4)
	base := time.Unix(100, 0)
	for i := 1; i < 10; i++ { // +1 construction sample = 10 total
		tl.sampleOnce(base.Add(time.Duration(i) * time.Second))
	}
	if tl.Total() != 10 {
		t.Fatalf("total = %d, want 10", tl.Total())
	}
	samples := tl.Samples()
	if len(samples) != 4 {
		t.Fatalf("retained %d samples, want capacity 4", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].UnixNano < samples[i-1].UnixNano {
			t.Fatalf("samples out of order: %d before %d", samples[i].UnixNano, samples[i-1].UnixNano)
		}
	}
	// The newest retained sample is the last tick we recorded.
	if got := samples[len(samples)-1].UnixNano; got != base.Add(9*time.Second).UnixNano() {
		t.Fatalf("newest sample at %d, want the final tick", got)
	}
}

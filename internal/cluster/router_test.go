package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"gllm/internal/metrics"
	"gllm/internal/runtime"
)

func TestAddValidation(t *testing.T) {
	r := New(Config{})
	if _, err := r.Add("", newFakeEngine(okPressure())); err == nil {
		t.Fatal("empty id must be rejected")
	}
	if _, err := r.Add("a", nil); err == nil {
		t.Fatal("nil engine must be rejected")
	}
	if _, err := r.Add("a", newFakeEngine(okPressure())); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add("a", newFakeEngine(okPressure())); err == nil {
		t.Fatal("duplicate id must be rejected")
	}
	if rep := r.Replica("a"); rep == nil || rep.ID != "a" {
		t.Fatalf("Replica(a) = %v", rep)
	}
	if rep := r.Replica("missing"); rep != nil {
		t.Fatalf("Replica(missing) = %v", rep)
	}
}

func TestDrainUnknownReplica(t *testing.T) {
	r := New(Config{})
	if err := r.Drain(context.Background(), "ghost"); !errors.Is(err, ErrUnknownReplica) {
		t.Fatalf("draining an unknown replica = %v, want ErrUnknownReplica", err)
	}
}

// Stats must aggregate over active AND retired replicas (so counters stay
// monotone across drains), weight KV headroom by capacity, and derive
// cluster health from routability.
func TestStatsAggregation(t *testing.T) {
	a := newFakeEngine(okPressure())
	a.snap = &runtime.Snapshot{
		Finished: 10, Cancelled: 1, Resident: 2, Iterations: 100,
		KVTotalBlocks: 20, KVFreeBlocks: 10, KVCachedBlocks: 4,
		PrefixHits: 3, PrefixHitTokens: 48,
		Uptime: 2 * time.Second, Health: runtime.HealthOK,
	}
	b := newFakeEngine(okPressure())
	b.snap = &runtime.Snapshot{
		Finished: 5, Cancelled: 0, Iterations: 40,
		KVTotalBlocks: 40, KVFreeBlocks: 30, KVCachedBlocks: 2,
		PrefixHits: 1, PrefixHitTokens: 16,
		Uptime: 3 * time.Second, Health: runtime.HealthStopped,
	}
	r := New(Config{})
	if _, err := r.Add("a", a); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add("b", b); err != nil {
		t.Fatal(err)
	}
	if err := r.Drain(context.Background(), "b"); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Replicas()); got != 1 {
		t.Fatalf("active replicas = %d, want 1", got)
	}
	if got := len(r.Retired()); got != 1 {
		t.Fatalf("retired replicas = %d, want 1", got)
	}

	st := r.Stats()
	if st.Finished != 15 || st.Cancelled != 1 || st.Iterations != 140 {
		t.Fatalf("counters not summed over retired: %+v", st)
	}
	if st.KVTotalBlocks != 60 || st.KVFreeBlocks != 40 || st.KVCachedBlocks != 6 {
		t.Fatalf("KV gauges: %+v", st)
	}
	if want := 40.0 / 60.0; st.KVFreeRate != want {
		t.Fatalf("KVFreeRate = %v, want capacity-weighted %v", st.KVFreeRate, want)
	}
	if st.PrefixHits != 4 || st.PrefixHitTokens != 64 {
		t.Fatalf("prefix gauges: %+v", st)
	}
	if st.Uptime != 3*time.Second {
		t.Fatalf("Uptime = %v, want max 3s", st.Uptime)
	}
	if st.Health != runtime.HealthOK {
		t.Fatalf("Health = %q, want ok while a is routable", st.Health)
	}
}

// The cluster's bubble rate is each replica's weighted by its stages ×
// uptime. A replica books a batch's busy time at injection, so mid-run its
// busy time can exceed stages × uptime; its own rate is taken over its
// booked end, and the aggregate stays in [0, 1].
func TestStatsWeightsBubbleRate(t *testing.T) {
	idle := newFakeEngine(okPressure())
	// 2 stages busy 2 s each over 4 s of uptime.
	idle.snap = &runtime.Snapshot{StageBusySeconds: []float64{2, 2}, BubbleRate: 0.5,
		Uptime: 4 * time.Second, Health: runtime.HealthOK}
	busy := newFakeEngine(okPressure())
	// 4 stages booked 4 s each after 2 s of uptime, up to an 8 s end.
	busy.snap = &runtime.Snapshot{StageBusySeconds: []float64{4, 4, 4, 4}, BubbleRate: 0.5,
		Uptime: 2 * time.Second, Health: runtime.HealthOK}
	r := New(Config{})
	for id, e := range map[string]*fakeEngine{"idle": idle, "busy": busy} {
		if _, err := r.Add(id, e); err != nil {
			t.Fatal(err)
		}
	}
	// Weights 2×4 s and 4×2 s.
	if got, want := r.Stats().BubbleRate, (0.5*8+0.5*8)/16.0; got != want {
		t.Fatalf("BubbleRate = %v, want %v", got, want)
	}
	busy.snap.BubbleRate = 0.25
	if got, want := r.Stats().BubbleRate, (0.5*8+0.25*8)/16.0; got != want {
		t.Fatalf("BubbleRate = %v, want %v", got, want)
	}
}

func TestStatsHealthTransitions(t *testing.T) {
	deg := newFakeEngine(runtime.Pressure{KVFree: 1, Health: runtime.HealthDegraded})
	r := New(Config{})
	if _, err := r.Add("a", deg); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Health; got != runtime.HealthDraining {
		t.Fatalf("no-routable-replica Health = %q, want draining", got)
	}
	if err := r.Drain(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Health; got != runtime.HealthStopped {
		t.Fatalf("empty-cluster Health = %q, want stopped", got)
	}
}

// The router's scrape sums every replica's counters — retired included, so
// they stay monotone across drains.
func TestRecordsIncludeRetired(t *testing.T) {
	a, b := newFakeEngine(okPressure()), newFakeEngine(okPressure())
	a.collector.Add(metrics.Record{ID: 1, OutputTokens: 3})
	b.collector.Add(metrics.Record{ID: 2, OutputTokens: 5})
	b.collector.Add(metrics.Record{ID: 3, OutputTokens: 7, FinishReason: "cancelled"})
	r := New(Config{})
	if _, err := r.Add("a", a); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add("b", b); err != nil {
		t.Fatal(err)
	}
	if err := r.Drain(context.Background(), "b"); err != nil {
		t.Fatal(err)
	}
	sc := r.Scrape()
	if sc.ByReason["length"] != 2 || sc.ByReason["cancelled"] != 1 {
		t.Fatalf("ByReason = %v, want 2 length + 1 cancelled (retired replica dropped?)", sc.ByReason)
	}
	if sc.OutputTokens != 15 || sc.CompletedOutputTokens != 8 {
		t.Fatalf("output tokens = %d (%d completed), want 15 (8)", sc.OutputTokens, sc.CompletedOutputTokens)
	}
}

// Replace adds the new replica before draining the old one, so routable
// capacity never dips.
func TestReplaceOrdering(t *testing.T) {
	old := newFakeEngine(okPressure())
	r := New(Config{})
	if _, err := r.Add("old", old); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Replace(context.Background(), "old", "new", newFakeEngine(okPressure()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "new" {
		t.Fatalf("Replace returned %q", rep.ID)
	}
	if r.Replica("new") == nil || r.Replica("old") != nil {
		t.Fatal("Replace must leave only the new replica active")
	}
	if len(r.Retired()) != 1 || r.Retired()[0].ID != "old" {
		t.Fatalf("retired = %v", r.Retired())
	}
	// A duplicate new ID must fail without draining the old replica.
	if _, err := r.Replace(context.Background(), "new", "new", newFakeEngine(okPressure())); err == nil {
		t.Fatal("duplicate replacement id must fail")
	}
	if r.Replica("new") == nil {
		t.Fatal("failed Replace must not drain the incumbent")
	}
}

// Replacing an id that names no replica must fail before anything is
// registered: the replacement used to be added first, so a typo in
// /cluster/replace left a stopped replica in every admin surface for good.
func TestReplaceUnknownLeavesReplicaSetUntouched(t *testing.T) {
	r := New(Config{})
	if _, err := r.Add("a", newFakeEngine(okPressure())); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Replace(context.Background(), "nope", "b", newFakeEngine(okPressure()))
	if !errors.Is(err, ErrUnknownReplica) || rep != nil {
		t.Fatalf("Replace(nope) = %v, %v; want nil, ErrUnknownReplica", rep, err)
	}
	if reps := r.Replicas(); len(reps) != 1 || reps[0].ID != "a" {
		t.Fatalf("replica set after failed replace = %v, want [a]", replicaRows(reps))
	}
	if len(r.Retired()) != 0 {
		t.Fatalf("failed replace retired %v", replicaRows(r.Retired()))
	}
	if st := r.RouterStats(); st.Replaces != 0 || st.Drains != 0 {
		t.Fatalf("failed replace counted: replaces=%d drains=%d", st.Replaces, st.Drains)
	}
	// The id is still free: the engine of the failed call was not retained.
	if _, err := r.Replace(context.Background(), "a", "b", newFakeEngine(okPressure())); err != nil {
		t.Fatal(err)
	}
}

// TestRouterSubmitAllocsPerRequest: routing a request to an in-process
// replica and draining its stream allocates no more than submitting to the
// replica directly. The pick reads the copy-on-write replica list instead
// of filtering it into a fresh candidate slice, which cost one allocation
// per pick.
func TestRouterSubmitAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; guard runs in normal builds")
	}
	rt := startReplica(t, func(cfg *runtime.Config) { cfg.WatchdogTimeout = -1 })
	c := New(Config{})
	if _, err := c.Add("r0", rt); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := Request{PromptLen: 8, MaxTokens: 4}
	drain := func(h *runtime.Handle, err error) {
		if err != nil {
			t.Fatal(err)
		}
		for h.Next(ctx) != nil {
		}
	}
	direct := func() { drain(rt.SubmitBatchedSpec(ctx, spec)) }
	routed := func() {
		h, _, err := c.Submit(ctx, spec)
		drain(h, err)
	}
	for range 256 {
		direct() // warm the replica; measured ids box to the heap
		routed()
	}
	own, viaRouter := testing.AllocsPerRun(500, direct), testing.AllocsPerRun(500, routed)
	t.Logf("allocs/request: direct %.2f, routed %.2f", own, viaRouter)
	if viaRouter > own {
		t.Fatalf("routing adds %.2f allocations per request", viaRouter-own)
	}
}

package runtime

import (
	"context"
	"testing"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/sched"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// TestPressureAndKVGauges exercises the lightweight routing view and the
// KV block accounting the cluster audit's leak check relies on.
func TestPressureAndKVGauges(t *testing.T) {
	rt := testRuntime(t, true)
	p := rt.Pressure()
	if p.Health != HealthOK {
		t.Fatalf("health = %q, want ok", p.Health)
	}
	if p.KVFree != 1 {
		t.Fatalf("idle KVFree = %v, want 1", p.KVFree)
	}
	h, err := rt.Submit(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	collect(t, h)
	st := rt.Stats()
	if st.KVTotalBlocks <= 0 {
		t.Fatalf("KVTotalBlocks = %d", st.KVTotalBlocks)
	}
	// All work retired: nothing may be leaked or cache-resident (no prefix
	// caching in this deployment).
	if st.KVFreeBlocks+st.KVCachedBlocks != st.KVTotalBlocks {
		t.Fatalf("leak: free %d + cached %d != total %d",
			st.KVFreeBlocks, st.KVCachedBlocks, st.KVTotalBlocks)
	}
	if st.KVCachedBlocks != 0 || st.PrefixHits != 0 {
		t.Fatalf("unexpected prefix state: cached %d hits %d", st.KVCachedBlocks, st.PrefixHits)
	}
}

// TestMatchPrefixReportsResidency proves the driver-answered query sees the
// prefix blocks a finished conversation turn registered, and that a
// follow-up declaring the same prefix group reuses them (PrefixHits).
func TestMatchPrefixReportsResidency(t *testing.T) {
	rt, err := Start(Config{
		Model:             model.Qwen25_14B,
		GPU:               gpu.L20,
		Topo:              network.IntraNode(4, network.PCIe),
		Scheduler:         sched.NewDefaultThrottle(),
		Async:             true,
		EnablePrefixCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const group, prompt, out = int64(7), 256, 4
	if got := rt.MatchPrefix(group, prompt); got != 0 {
		t.Fatalf("cold MatchPrefix = %d, want 0", got)
	}
	h, err := rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: prompt, MaxTokens: out, PrefixGroup: group})
	if err != nil {
		t.Fatal(err)
	}
	drainBatched(t, h)

	got := rt.MatchPrefix(group, prompt)
	if got <= 0 {
		t.Fatalf("MatchPrefix after first turn = %d, want > 0", got)
	}
	// Follow-up turn sharing the first turn's context: must hit the cache.
	h2, err := rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: prompt + 64, MaxTokens: out, PrefixGroup: group, SharedPrefixLen: prompt})
	if err != nil {
		t.Fatal(err)
	}
	drainBatched(t, h2)
	st := rt.Stats()
	if st.PrefixHits < 1 || st.PrefixHitTokens <= 0 {
		t.Fatalf("prefix hits = %d (%d tokens), want reuse", st.PrefixHits, st.PrefixHitTokens)
	}
	if rt.Close(); rt.MatchPrefix(group, prompt) != 0 {
		t.Fatal("MatchPrefix on a stopped runtime must report 0")
	}
}

// TestKVExhaustionDoesNotStallLive submits, all at once, a seeded Azure
// trace whose every request fits the 602-block KV cache but whose long
// prompts fill it with partial prefills. Without the pool's stall rule the
// throttle finished 7 and then sat forever with nothing in flight, 12
// requests resident and health "ok" (the watchdog watches only in-flight
// work). internal/invariant's TestKVExhaustionDoesNotStall is the same
// trace on the simulator.
func TestKVExhaustionDoesNotStallLive(t *testing.T) {
	rt, err := Start(Config{
		Model:     model.Qwen25_32B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		MemUtil:   0.315,
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	items := workload.Poisson(stats.NewRNG(11), workload.Azure, 2, 10*time.Second)
	handles := make([]*Handle, len(items))
	for i, it := range items {
		if handles[i], err = rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: it.PromptLen, MaxTokens: it.OutputLen}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, h := range handles {
		for h.Next(ctx) != nil {
		}
	}
	if st := rt.Stats(); ctx.Err() != nil {
		t.Fatalf("stalled with %d in flight, %d resident, KV free %.3f", st.InFlight, st.Resident, st.KVFreeRate)
	}
	for i, h := range handles {
		if r := h.FinishReason(); r != FinishLength {
			t.Fatalf("request %d finished %q, want %q", i, r, FinishLength)
		}
	}
}

func drainBatched(t *testing.T, h *Handle) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for h.Next(ctx) != nil {
	}
	if ctx.Err() != nil {
		t.Fatal("timed out draining handle")
	}
}

func TestRetryAfterHintDerivation(t *testing.T) {
	cases := []struct {
		name     string
		kvFree   float64
		resident int
		want     time.Duration
	}{
		{"idle", 1, 0, time.Second},
		{"half used", 0.5, 0, time.Second},
		{"three quarters used", 0.25, 0, 3 * time.Second},
		{"saturated", 0, 0, 5 * time.Second},
		{"deep queue", 1, 1024, 5 * time.Second},
		{"saturated and deep", 0, 10240, 30 * time.Second}, // capped
	}
	for _, tc := range cases {
		s := Snapshot{KVFreeRate: tc.kvFree, Resident: tc.resident}
		if got := s.RetryAfterHint(); got != tc.want {
			t.Errorf("%s: Snapshot hint = %v, want %v", tc.name, got, tc.want)
		}
		p := Pressure{KVFree: tc.kvFree, Resident: tc.resident}
		if got := p.RetryAfterHint(); got != tc.want {
			t.Errorf("%s: Pressure hint = %v, want %v", tc.name, got, tc.want)
		}
	}
}

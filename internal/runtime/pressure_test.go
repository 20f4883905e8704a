package runtime

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gllm/internal/engine"
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

// TestMatchPrefixReportsResidency proves the published residency holds the
// prefix blocks a finished conversation turn registered by the time its
// stream ends, and that a follow-up declaring the same prefix group reuses
// them (PrefixHits).
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

// parkingScheduler parks the driver inside Schedule once armed, until
// released; pool is the driver's pool, as the scheduler last saw it.
type parkingScheduler struct {
	sched.Scheduler
	armed           atomic.Bool
	parked, release chan struct{}
	pool            atomic.Pointer[sched.Pool]
}

func (p *parkingScheduler) Schedule(pool *sched.Pool, now time.Duration) *sched.Batch {
	p.pool.Store(pool)
	if p.armed.CompareAndSwap(true, false) {
		close(p.parked)
		<-p.release
	}
	return p.Scheduler.Schedule(pool, now)
}

// TestMatchPrefixNeverWaitsForDriver parks the driver inside Schedule after
// a prefix-cached turn has finished: MatchPrefix must still answer at once
// with the published run, and allocate nothing doing so.
func TestMatchPrefixNeverWaitsForDriver(t *testing.T) {
	ps := &parkingScheduler{Scheduler: sched.NewDefaultThrottle(),
		parked: make(chan struct{}), release: make(chan struct{})}
	unpark := sync.OnceFunc(func() { close(ps.release) })
	defer unpark() // before startRuntime's Close, which waits for the driver
	rt := startRuntime(t, func(cfg *Config) {
		cfg.Scheduler = ps
		cfg.EnablePrefixCache = true
	})
	const group, prompt = int64(7), 256
	h, err := rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: prompt, MaxTokens: 4, PrefixGroup: group})
	if err != nil {
		t.Fatal(err)
	}
	drainBatched(t, h)
	run := rt.MatchPrefix(group, 1<<20)
	if run <= 0 {
		t.Fatalf("MatchPrefix after the first turn = %d, want > 0", run)
	}
	ps.armed.Store(true)
	if h, err = rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: 16, MaxTokens: 4}); err != nil {
		t.Fatal(err)
	}
	<-ps.parked
	answer := make(chan int, 1)
	go func() { answer <- rt.MatchPrefix(group, 1<<20) }()
	select {
	case got := <-answer:
		if got != run {
			t.Fatalf("MatchPrefix with the driver parked = %d, want %d", got, run)
		}
	case <-time.After(time.Second):
		t.Fatal("MatchPrefix waited on the parked driver")
	}
	if allocs := testing.AllocsPerRun(100, func() { rt.MatchPrefix(group, prompt) }); allocs != 0 {
		t.Fatalf("MatchPrefix: %v allocations per call, want 0", allocs)
	}
	unpark()
	drainBatched(t, h)
}

// TestPrefixResidencyConsistentUnderLoad serves multi-turn conversations
// through a cache small enough to evict while four goroutines read
// MatchPrefix. After Shutdown the published table must equal the driver's
// KV cache for every group, and hold no entry whose run is zero.
func TestPrefixResidencyConsistentUnderLoad(t *testing.T) {
	ps := &parkingScheduler{Scheduler: sched.NewDefaultThrottle()}
	rt := startRuntime(t, func(cfg *Config) {
		cfg.Model = model.Qwen25_32B
		cfg.MemUtil = 0.315 // 602 blocks: the conversations below evict
		cfg.Scheduler = ps
		cfg.EnablePrefixCache = true
	})
	const convs, turns = 24, 4
	stop := make(chan struct{})
	var readers, load sync.WaitGroup
	for r := range 4 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if got := rt.MatchPrefix(int64(1+(r+i)%convs), 1<<20); got%engine.KVBlockSize != 0 {
					t.Errorf("MatchPrefix = %d, not whole blocks", got)
					return
				}
			}
		}()
	}
	for c := range convs {
		load.Add(1)
		go func() {
			defer load.Done()
			shared := 0
			for turn := range turns {
				prompt := shared + 96 + 32*turn
				h, err := rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: prompt, MaxTokens: 8,
					PrefixGroup: int64(1 + c), SharedPrefixLen: shared})
				if err != nil {
					t.Error(err)
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				for h.Next(ctx) != nil {
				}
				cancel()
				if r := h.FinishReason(); r != FinishLength {
					t.Errorf("group %d turn %d finished %q, want %q", 1+c, turn, r, FinishLength)
					return
				}
				shared = prompt + 8
			}
		}()
	}
	load.Wait()
	close(stop)
	readers.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	kv := ps.pool.Load().KV
	if err := kv.Verify(); err != nil {
		t.Fatal(err)
	}
	entries, resident := 0, 0
	for i := range rt.prefixRuns {
		entries += len(rt.prefixRuns[i].runs)
	}
	for g := int64(1); g <= convs; g++ {
		want := kv.MatchPrefix(g, 1<<20)
		if got := rt.prefixRuns.get(g); got != want {
			t.Errorf("group %d: published run %d tokens, KV cache %d", g, got, want)
		}
		if want > 0 {
			resident++
		}
		if got := rt.MatchPrefix(g, 1<<20); got != 0 {
			t.Errorf("group %d: MatchPrefix on a stopped runtime = %d, want 0", g, got)
		}
	}
	if entries != resident {
		t.Fatalf("table holds %d entries for %d groups with a resident run", entries, resident)
	}
	if kv.Evictions() == 0 || resident == 0 {
		t.Fatalf("%d evictions, %d resident groups: the load must both evict and keep prefixes", kv.Evictions(), resident)
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

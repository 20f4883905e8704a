package runtime

import (
	"context"
	"errors"
	"math"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"gllm/internal/engine"
	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/sched"
)

func testRuntime(t *testing.T, async bool) *Runtime {
	t.Helper()
	rt, err := Start(Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     async,
		TimeScale: 0, // no sleeping: as fast as possible
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return rt
}

func collect(t *testing.T, h *Handle) []TokenEvent {
	t.Helper()
	var events []TokenEvent
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-h.Events:
			if !ok {
				return events
			}
			events = append(events, ev)
		case <-deadline:
			t.Fatalf("timed out after %d events", len(events))
		}
	}
}

func TestSubmitStreamsAllTokens(t *testing.T) {
	rt := testRuntime(t, true)
	h, err := rt.Submit(100, 20)
	if err != nil {
		t.Fatal(err)
	}
	events := collect(t, h)
	if len(events) != 20 {
		t.Fatalf("events = %d, want 20", len(events))
	}
	for i, ev := range events {
		if ev.Index != i {
			t.Fatalf("event %d has index %d", i, ev.Index)
		}
		if ev.ReqID != h.ID {
			t.Fatalf("event req = %d, want %d", ev.ReqID, h.ID)
		}
		if ev.Text == "" {
			t.Fatal("empty token text")
		}
		if ev.Finished != (i == 19) {
			t.Fatalf("finished flag wrong at %d", i)
		}
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	rt := testRuntime(t, true)
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	counts := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			h, err := rt.Submit(50+k*7, 5+k%11)
			if err != nil {
				errs <- err
				return
			}
			got := 0
			for range h.Events {
				got++
			}
			counts <- got
		}(i)
	}
	wg.Wait()
	close(errs)
	close(counts)
	for err := range errs {
		t.Fatal(err)
	}
	total := 0
	for c := range counts {
		if c == 0 {
			t.Fatal("a request produced no tokens")
		}
		total += c
	}
	if total == 0 {
		t.Fatal("no tokens at all")
	}
	if got := rt.Metrics().Scrape().ByReason["length"]; got != n {
		t.Fatalf("completed requests = %d, want %d", got, n)
	}
}

func TestSyncModeServesIdenticalContent(t *testing.T) {
	async := testRuntime(t, true)
	syncRt := testRuntime(t, false)

	ha, err := async.Submit(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := syncRt.Submit(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	ea := collect(t, ha)
	es := collect(t, hs)
	if len(ea) != len(es) {
		t.Fatalf("token counts differ: %d vs %d", len(ea), len(es))
	}
	// Same request ID (both are request 0 of their runtime) must yield the
	// same content — generation is scheduling- and runtime-invariant.
	for i := range ea {
		if ea[i].Token != es[i].Token || ea[i].Text != es[i].Text {
			t.Fatalf("content diverged at %d: %v vs %v", i, ea[i], es[i])
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	rt := testRuntime(t, true)
	if _, err := rt.Submit(0, 5); err == nil {
		t.Fatal("zero prompt accepted")
	}
	if _, err := rt.Submit(5, 0); err == nil {
		t.Fatal("zero output accepted")
	}
	if _, err := rt.Submit(100_000_000, 5); err == nil {
		t.Fatal("oversized prompt accepted")
	}
	// Lengths whose sum wraps: accepting one made the admitted KV demand
	// negative, and the next submission crashed the driver.
	for _, l := range [][2]int{{math.MaxInt, 1}, {1, math.MaxInt}, {math.MaxInt / 2, math.MaxInt/2 + 2}} {
		if _, err := rt.Submit(l[0], l[1]); err == nil {
			t.Fatalf("lengths %d+%d accepted", l[0], l[1])
		}
	}
	if got := rt.admittedKV.Load(); got != 0 {
		t.Fatalf("admitted KV demand %d after refusals, want 0", got)
	}
}

// Start rejects every bad deployment with an error — MemUtil arrives from a
// flag and used to reach a panic in the cost model, a span recorder with
// fewer stages than the pipeline one in a stage worker — and a pure
// capacity failure carries the engines' sentinel.
func TestStartValidation(t *testing.T) {
	base := Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		is     error // when non-nil, the error must wrap it
	}{
		{"nil scheduler", func(c *Config) { c.Scheduler = nil }, nil},
		{"no model", func(c *Config) { c.Model = model.Config{} }, nil},
		{"no GPU", func(c *Config) { c.GPU = gpu.Spec{} }, nil},
		{"deeper than the model", func(c *Config) { c.Topo = network.IntraNode(c.Model.NumLayers+1, network.PCIe) }, nil},
		{"MemUtil above 1", func(c *Config) { c.MemUtil = 2 }, nil},
		{"negative MemUtil", func(c *Config) { c.MemUtil = -0.1 }, nil},
		// NaN fails no ordered comparison, so it used to pass every check.
		// A 0 is each float field's documented default, not an input error.
		{"NaN MemUtil", func(c *Config) { c.MemUtil = math.NaN() }, nil},
		{"+Inf MemUtil", func(c *Config) { c.MemUtil = math.Inf(1) }, nil},
		{"-Inf MemUtil", func(c *Config) { c.MemUtil = math.Inf(-1) }, nil},
		{"MemUtil -1", func(c *Config) { c.MemUtil = -1 }, nil},
		{"NaN TimeScale", func(c *Config) { c.TimeScale = math.NaN() }, nil},
		{"+Inf TimeScale", func(c *Config) { c.TimeScale = math.Inf(1) }, nil},
		{"-Inf TimeScale", func(c *Config) { c.TimeScale = math.Inf(-1) }, nil},
		{"TimeScale -1", func(c *Config) { c.TimeScale = -1 }, nil},
		{"NaN AdmitKVFactor", func(c *Config) { c.AdmitKVFactor = math.NaN() }, nil},
		{"+Inf AdmitKVFactor", func(c *Config) { c.AdmitKVFactor = math.Inf(1) }, nil},
		{"span recorder shallower than the pipeline", func(c *Config) { c.Spans = obs.NewRecorder(2, 0) }, nil},
		{"oversized model", func(c *Config) {
			c.Model = model.Llama31_100B
			c.Topo = network.IntraNode(2, network.PCIe)
		}, engine.ErrModelDoesNotFit},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		rt, err := Start(cfg)
		if err == nil {
			rt.Close()
			t.Errorf("%s: accepted", tc.name)
		} else if tc.is != nil && !errors.Is(err, tc.is) {
			t.Errorf("%s: error %q does not wrap %q", tc.name, err, tc.is)
		}
	}
}

func TestShutdownStopsSubmit(t *testing.T) {
	rt, err := Start(Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(2, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit(10, 5); err != ErrStopped {
		t.Fatalf("Submit after shutdown = %v, want ErrStopped", err)
	}
	// Idempotent.
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestStatsProgress(t *testing.T) {
	rt := testRuntime(t, true)
	h, err := rt.Submit(128, 10)
	if err != nil {
		t.Fatal(err)
	}
	collect(t, h)
	// Poll until the driver's snapshot catches up.
	deadline := time.After(5 * time.Second)
	for {
		st := rt.Stats()
		if st.Finished == 1 && st.InFlight == 0 {
			if st.Iterations == 0 {
				t.Fatal("no iterations counted")
			}
			if st.KVFreeRate != 1 {
				t.Fatalf("KV not drained: free rate %v", st.KVFreeRate)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("stats never settled: %+v", st)
		case <-time.After(time.Millisecond):
		}
	}
}

func TestTokenDeterminism(t *testing.T) {
	if TokenValue(3, 7) != TokenValue(3, 7) {
		t.Fatal("TokenValue not deterministic")
	}
	if TokenValue(3, 7) == TokenValue(3, 8) || TokenValue(3, 7) == TokenValue(4, 7) {
		t.Fatal("TokenValue collisions across adjacent inputs")
	}
}

func TestTokenizeLen(t *testing.T) {
	if TokenizeLen("hello world foo") != 3 {
		t.Fatal("tokenize count wrong")
	}
	if TokenizeLen("") != 1 {
		t.Fatal("empty prompt should count 1 token")
	}
	if TokenizeLen("   ") != 1 {
		t.Fatal("blank prompt should count 1 token")
	}
}

func TestScaledClockRuns(t *testing.T) {
	// A tiny TimeScale exercises the sleeping paths without slowing tests.
	rt, err := Start(Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(2, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
		TimeScale: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	}()
	h, err := rt.Submit(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(collect(t, h)); got != 4 {
		t.Fatalf("events = %d", got)
	}
	// Emulated compute is slept, so every stage accrued busy time.
	for i, busy := range rt.Stats().StageBusySeconds {
		if busy <= 0 {
			t.Fatalf("stage %d busy %v s with compute emulated", i, busy)
		}
	}
}

// An async runtime is the driver plus the clock goroutine at any depth:
// dual-phase transmission is the driver's prep charge and the stages are
// priced windows, so a per-stage goroutine (four more wake-ups per batch at
// PP-4) fails here.
func TestAsyncGoroutineBudget(t *testing.T) {
	baseline := settled()
	rt, err := Start(Config{
		Model:           model.Qwen25_14B,
		GPU:             gpu.L20,
		Topo:            network.IntraNode(4, network.PCIe),
		Scheduler:       sched.NewDefaultThrottle(),
		Async:           true,
		WatchdogTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := goruntime.NumGoroutine()-baseline, 2; got != want {
		t.Errorf("PP-4 async runtime added %d goroutines, want %d (driver + clock)", got, want)
	}
	h, err := rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: 64, MaxTokens: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(collectBatched(t, h)); got != 8 {
		t.Fatalf("tokens = %d", got)
	}
	rt.Close()
	waitFor(t, "every runtime goroutine to exit", func() bool {
		return goruntime.NumGoroutine() <= baseline
	})
}

func TestConversationWithPrefixCache(t *testing.T) {
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
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	}()

	// A 4-turn conversation: each turn's prompt extends the accumulated
	// context, declared as the shared prefix of group 7.
	ctxLen := 0
	for turn := 0; turn < 4; turn++ {
		prompt := ctxLen + 50
		out := 20
		h, err := rt.SubmitBatchedSpec(context.Background(), SubmitSpec{
			PromptLen: prompt, MaxTokens: out, PrefixGroup: 7, SharedPrefixLen: ctxLen})
		if err != nil {
			t.Fatalf("turn %d: %v", turn, err)
		}
		if got := len(collectBatched(t, h)); got != out {
			t.Fatalf("turn %d produced %d tokens", turn, got)
		}
		ctxLen = prompt + out
	}
	if got := rt.Metrics().Scrape().ByReason["length"]; got != 4 {
		t.Fatalf("finished %d/4 turns", got)
	}
}

func TestSubmitWithPrefixValidation(t *testing.T) {
	rt := testRuntime(t, true)
	for _, shared := range []int{-1, 11} {
		spec := SubmitSpec{PromptLen: 10, MaxTokens: 5, PrefixGroup: 1, SharedPrefixLen: shared}
		if _, err := rt.SubmitBatchedSpec(context.Background(), spec); err == nil {
			t.Fatalf("shared prefix %d of a 10-token prompt accepted", shared)
		}
	}
}

func TestRuntimeCPPMode(t *testing.T) {
	rt, err := Start(Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
		EnableCPP: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	}()
	// A long prompt whose chunks pipeline across micro-batches.
	h, err := rt.Submit(9000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(collect(t, h)); got != 4 {
		t.Fatalf("tokens = %d", got)
	}
}

func TestSyncRuntimeServesConcurrentLoad(t *testing.T) {
	rt := testRuntime(t, false) // coupled mode
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			h, err := rt.Submit(40+k, 3)
			if err != nil {
				t.Error(err)
				return
			}
			for range h.Events {
			}
		}(i)
	}
	wg.Wait()
	if got := rt.Metrics().Scrape().ByReason["length"]; got != 12 {
		t.Fatalf("finished %d/12", got)
	}
}

// Submit is a shim: one pump goroutine between slab delivery and Events.
// The pump must not outlive the stream even when nobody reads Events (the
// channel holds the whole stream, abort terminator included), Done closes
// no later than Events, and Next on the shim's handle — which would race
// the pump for slabs — panics.
func TestSubmitShimPumpExits(t *testing.T) {
	rt := testRuntime(t, true)
	baseline := goruntime.NumGoroutine()
	handles := make([]*Handle, 8)
	for i := range handles {
		h, err := rt.Submit(64, 16)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			h.Cancel() // may lose the race against completion; either way the stream ends
		}
		handles[i] = h
	}
	for _, h := range handles {
		<-h.Done()
	}
	waitFor(t, "every pump to exit with nobody reading Events", func() bool {
		return goruntime.NumGoroutine() <= baseline
	})
	for i, h := range handles {
		events := collect(t, h)
		last := events[len(events)-1]
		if !last.Finished || last.Reason != h.FinishReason() {
			t.Fatalf("handle %d: terminal event %+v, FinishReason %q", i, last, h.FinishReason())
		}
		if last.Reason == FinishLength && len(events) != 16 {
			t.Fatalf("handle %d: completed with %d events, want 16", i, len(events))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Next on a Submit handle did not panic")
		}
	}()
	handles[0].Next(context.Background())
}

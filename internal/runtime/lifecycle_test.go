package runtime

import (
	"context"
	"errors"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/sched"
)

// startRuntime builds a runtime from the standard test deployment with
// config overrides, cleaning up with an immediate Close.
func startRuntime(t *testing.T, mutate func(*Config)) *Runtime {
	t.Helper()
	cfg := Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt
}

// stallStage returns a fault injector stalling every micro-batch at stage 0
// for d (paces retirement so lifecycle transitions are observable).
func stallStage(d time.Duration) func(stage, seq int) time.Duration {
	return func(stage, seq int) time.Duration {
		if stage == 0 {
			return d
		}
		return 0
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(time.Millisecond):
		}
	}
}

// Concurrent Shutdown and Close calls must never panic (the seed runtime
// had a check-then-close race on stopCh) and must all return.
func TestConcurrentShutdownAndClose(t *testing.T) {
	rt := startRuntime(t, nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if k%2 == 0 {
				_ = rt.Shutdown(ctx)
			} else {
				_ = rt.Close()
			}
		}(i)
	}
	wg.Wait()
	if got := rt.Stats().Health; got != HealthStopped {
		t.Fatalf("health after shutdown = %q", got)
	}
}

// Close with queued and in-flight work must close every handle's Events
// channel (the seed driver returned from drain without terminating queued
// submissions, leaking any goroutine ranging over them).
func TestCloseClosesEveryPendingHandle(t *testing.T) {
	rt := startRuntime(t, func(cfg *Config) {
		cfg.StageFault = stallStage(time.Hour) // nothing ever retires
	})
	const n = 8
	handles := make([]*Handle, n)
	for i := range handles {
		h, err := rt.Submit(64, 32)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	done := make(chan FinishReason, n)
	for _, h := range handles {
		go func(h *Handle) {
			for range h.Events {
			}
			done <- h.FinishReason()
		}(h)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		select {
		case reason := <-done:
			if reason != FinishShutdown {
				t.Fatalf("finish reason = %q, want %q", reason, FinishShutdown)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("handle %d still blocked after Close", i)
		}
	}
}

// Graceful Shutdown must finish queued work, not abort it: every handle
// streams its full output with FinishLength.
func TestGracefulShutdownDrainsQueuedWork(t *testing.T) {
	rt := startRuntime(t, nil)
	const n = 8
	handles := make([]*Handle, n)
	for i := range handles {
		h, err := rt.Submit(80+i*13, 6+i)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	for i, h := range handles {
		got := 0
		for range h.Events {
			got++
		}
		if want := 6 + i; got != want {
			t.Fatalf("handle %d streamed %d/%d tokens", i, got, want)
		}
		if reason := h.FinishReason(); reason != FinishLength {
			t.Fatalf("handle %d finish reason = %q", i, reason)
		}
	}
}

// Shutdown with an already-expired deadline still terminates: the remainder
// is aborted and ctx.Err() reported.
func TestShutdownDeadlineAbortsRemainder(t *testing.T) {
	rt := startRuntime(t, func(cfg *Config) {
		cfg.StageFault = stallStage(50 * time.Millisecond)
	})
	h, err := rt.Submit(64, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := rt.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	for range h.Events {
	}
	if reason := h.FinishReason(); reason != FinishShutdown {
		t.Fatalf("finish reason = %q", reason)
	}
}

// Submissions during a drain are refused with ErrStopped.
func TestSubmitDuringDrainRefused(t *testing.T) {
	rt := startRuntime(t, func(cfg *Config) {
		cfg.StageFault = stallStage(time.Hour)
	})
	if _, err := rt.Submit(64, 100); err != nil {
		t.Fatal(err)
	}
	shutdownDone := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
		close(shutdownDone)
	}()
	waitFor(t, "drain to start", func() bool { return rt.Stats().Health == HealthDraining })
	if _, err := rt.Submit(10, 5); !errors.Is(err, ErrStopped) {
		t.Fatalf("Submit during drain = %v, want ErrStopped", err)
	}
	_ = rt.Close()
	<-shutdownDone
}

// Cancelling a running request releases its KV: the free rate returns to
// its pre-submit value and the snapshot counts the cancellation.
func TestCancelFreesKV(t *testing.T) {
	rt := startRuntime(t, func(cfg *Config) {
		cfg.StageFault = stallStage(3 * time.Millisecond) // observable pacing
	})
	if got := rt.Stats().KVFreeRate; got != 1 {
		t.Fatalf("pre-submit KV free rate = %v", got)
	}
	h, err := rt.Submit(512, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "KV to be occupied", func() bool { return rt.Stats().KVFreeRate < 1 })
	h.Cancel()
	h.Cancel() // idempotent
	select {
	case <-h.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled request never terminated")
	}
	if reason := h.FinishReason(); reason != FinishCancelled {
		t.Fatalf("finish reason = %q", reason)
	}
	var last TokenEvent
	n := 0
	for ev := range h.Events {
		last = ev
		n++
	}
	if n == 0 || !last.Finished || last.Reason != FinishCancelled || last.Text != "" {
		t.Fatalf("terminal event = %+v after %d events", last, n)
	}
	waitFor(t, "KV release", func() bool {
		st := rt.Stats()
		return st.KVFreeRate == 1 && st.Cancelled == 1 && st.Resident == 0
	})
}

// A submission context's deadline aborts the request with FinishTimeout.
func TestSubmitCtxDeadline(t *testing.T) {
	rt := startRuntime(t, func(cfg *Config) {
		cfg.StageFault = stallStage(3 * time.Millisecond)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	h, err := rt.SubmitBatchedSpec(ctx, SubmitSpec{PromptLen: 256, MaxTokens: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	events := collectBatched(t, h)
	if last := events[len(events)-1]; !last.Finished || last.Reason != FinishTimeout || last.Text != "" {
		t.Fatalf("terminal event = %+v", last)
	}
	if reason := h.FinishReason(); reason != FinishTimeout {
		t.Fatalf("finish reason = %q, want %q", reason, FinishTimeout)
	}
	waitFor(t, "KV release after timeout", func() bool { return rt.Stats().KVFreeRate == 1 })
}

// The KV-headroom admission gate rejects submissions beyond the configured
// demand with ErrQueueFull, and releases the budget when requests finish.
func TestAdmissionControlRejects(t *testing.T) {
	// The stall keeps every request resident through the admission checks
	// (100 output tokens take seconds) yet lets the cancelled request's
	// micro-batch retire: a cancel that lands after the driver injected it
	// is honoured at the next batch boundary, and with an hour-long stall
	// that boundary never came — the test hung once in ~2 000 runs.
	rt := startRuntime(t, func(cfg *Config) {
		// A cap of 300 tokens, as a fraction of the deployment's capacity.
		cost := gpu.NewCostModel(cfg.Model, cfg.GPU)
		kvCap := cost.KVCapacityTokensPP(cfg.Model.StageLayers(cfg.Topo.GPUs()), 0.9)
		cfg.AdmitKVFactor = 300.5 / float64(kvCap)
		cfg.StageFault = stallStage(20 * time.Millisecond)
	})
	h, err := rt.Submit(100, 100) // demand 200 of 300
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit(100, 100); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-limit Submit = %v, want ErrQueueFull", err)
	}
	if _, err := rt.Submit(50, 40); err != nil { // demand 90 still fits
		t.Fatalf("in-limit Submit = %v", err)
	}
	if got := rt.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	h.Cancel()
	for range h.Events {
	}
	// The cancelled request's 200-token demand is back.
	waitFor(t, "admission budget release", func() bool {
		_, err := rt.Submit(100, 90)
		return err == nil
	})
}

// An injected stage stall flips health to degraded while work is stuck in
// flight, and Close recovers promptly (stalls are interruptible).
func TestWatchdogDetectsStall(t *testing.T) {
	rt := startRuntime(t, func(cfg *Config) {
		cfg.WatchdogTimeout = 20 * time.Millisecond
		cfg.StageFault = stallStage(time.Hour)
	})
	if _, err := rt.Submit(64, 100); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "degraded health", func() bool { return rt.Stats().Health == HealthDegraded })
	closed := make(chan struct{})
	go func() { _ = rt.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not interrupt the injected stall")
	}
	if got := rt.Stats().Health; got != HealthStopped {
		t.Fatalf("health after close = %q", got)
	}
}

// A healthy runtime under load never reports degraded.
func TestWatchdogQuietWhenHealthy(t *testing.T) {
	rt := startRuntime(t, func(cfg *Config) {
		cfg.WatchdogTimeout = 50 * time.Millisecond
	})
	h, err := rt.Submit(256, 400)
	if err != nil {
		t.Fatal(err)
	}
	for range h.Events {
	}
	if got := rt.Stats().Health; got != HealthOK {
		t.Fatalf("health = %q, want %q", got, HealthOK)
	}
}

// Cancelling a handle whose request already finished is a harmless no-op.
func TestCancelAfterFinish(t *testing.T) {
	rt := startRuntime(t, nil)
	h, err := rt.Submit(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for range h.Events {
		got++
	}
	h.Cancel()
	if got != 4 {
		t.Fatalf("tokens = %d", got)
	}
	if reason := h.FinishReason(); reason != FinishLength {
		t.Fatalf("finish reason = %q", reason)
	}
	if st := rt.Stats(); st.Cancelled != 0 {
		t.Fatalf("cancelled = %d, want 0", st.Cancelled)
	}
}

// Hammering Cancel from many goroutines while requests complete normally
// must not deadlock, double-close, or leak handles.
func TestConcurrentCancelAndComplete(t *testing.T) {
	rt := startRuntime(t, func(cfg *Config) {
		cfg.StageFault = stallStage(500 * time.Microsecond)
	})
	const n = 24
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			h, err := rt.Submit(40+k, 8+k%16)
			if err != nil {
				t.Error(err)
				return
			}
			if k%3 == 0 {
				h.Cancel()
			}
			for range h.Events {
			}
			if h.FinishReason() == "" {
				t.Errorf("request %d terminated without a reason", k)
			}
		}(i)
	}
	wg.Wait()
	waitFor(t, "all requests to leave the pool", func() bool {
		st := rt.Stats()
		return st.Resident == 0 && st.InFlight == 0 && st.KVFreeRate == 1
	})
}

// FinishReason is empty while a request is still live.
func TestFinishReasonBeforeTerminal(t *testing.T) {
	rt := startRuntime(t, func(cfg *Config) {
		cfg.StageFault = stallStage(5 * time.Millisecond)
	})
	h, err := rt.Submit(64, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if reason := h.FinishReason(); reason != "" {
		t.Fatalf("live request finish reason = %q", reason)
	}
	h.Cancel()
	for range h.Events {
	}
}

// A submission accepted while a graceful Shutdown begins is queued work like
// any other: it must be served, not swept up by the driver's exit and
// aborted with FinishShutdown. Submitters race the drain; whoever gets a
// handle gets a full generation.
func TestGracefulShutdownServesRacingSubmissions(t *testing.T) {
	for round := 0; round < 50; round++ {
		rt := startRuntime(t, nil)
		var wg sync.WaitGroup
		var served atomic.Int64
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					h, err := rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: 16, MaxTokens: 2})
					if err != nil {
						if !errors.Is(err, ErrStopped) {
							t.Errorf("submit: %v", err)
						}
						return
					}
					<-h.Done()
					if reason := h.FinishReason(); reason != FinishLength {
						t.Errorf("round %d: accepted request %d finished %q during a graceful drain", round, h.ID, reason)
						return
					}
					served.Add(1)
				}
			}()
		}
		waitFor(t, "traffic to flow", func() bool { return served.Load() >= 16 })
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := rt.Shutdown(ctx); err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
		cancel()
		wg.Wait()
	}
}

// A consumer that sees Next return nil already finds the request in the
// counters and in Metrics(): the driver counts an outcome before it ends the
// stream, so Stats().Finished is exact the moment a stream ends.
func TestFinishedCountedBeforeStreamEnds(t *testing.T) {
	rt := startRuntime(t, nil)
	const n = 2000
	for i := 1; i <= n; i++ {
		h, err := rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: 16, MaxTokens: 2})
		if err != nil {
			t.Fatal(err)
		}
		drainBatched(t, h)
		if got := rt.Stats().Finished; got != i {
			t.Fatalf("stream %d ended with Stats().Finished = %d", i, got)
		}
		if got := rt.Metrics().Count(); got != i {
			t.Fatalf("stream %d ended with Metrics().Count() = %d", i, got)
		}
	}
}

// A cancellable submission context costs no goroutine: the abort is
// registered on the context, not watched by a goroutine per request. The
// context still aborts every request, held in flight or queued behind it.
func TestCancellableSubmitSpawnsNoGoroutine(t *testing.T) {
	release := make(chan struct{})
	unstall := sync.OnceFunc(func() { close(release) })
	defer unstall() // before startRuntime's Close, which waits for the batch
	rt := startRuntime(t, func(cfg *Config) {
		cfg.WatchdogTimeout = -1
		cfg.StageFault = func(stage, seq int) time.Duration {
			if stage == 0 && seq == 1 {
				<-release
			}
			return 0
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := goruntime.NumGoroutine()
	handles := make([]*Handle, 64)
	for i := range handles {
		h, err := rt.SubmitBatchedSpec(ctx, SubmitSpec{PromptLen: 16, MaxTokens: 4})
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	if added := goruntime.NumGoroutine() - before; added != 0 {
		t.Fatalf("%d cancellable submissions added %d goroutines, want 0", len(handles), added)
	}
	cancel()
	// Release the held batch only once every abort is requested, so none of
	// its requests can finish first.
	waitFor(t, "every cancellation to register", func() bool {
		for _, h := range handles {
			if h.abortReason.Load() == nil {
				return false
			}
		}
		return true
	})
	unstall()
	for i, h := range handles {
		drainBatched(t, h)
		if reason := h.FinishReason(); reason != FinishCancelled {
			t.Fatalf("request %d finished %q, want %q", i, reason, FinishCancelled)
		}
	}
}

// countingScheduler counts Schedule calls: VirtualEngines, TDPipe and
// BatchLevel mutate state on every one, so when the driver calls is part of
// its contract.
type countingScheduler struct {
	sched.Scheduler
	calls atomic.Int64
}

func (c *countingScheduler) Schedule(p *sched.Pool, now time.Duration) *sched.Batch {
	c.calls.Add(1)
	return c.Scheduler.Schedule(p, now)
}

// The driver schedules after a submit, a cancel or a retire — never after a
// MatchPrefix query or a stop signal. A lone request is held mid-decode by a
// stalled batch; queries and a Shutdown arriving meanwhile must leave the
// scheduler's call count where it was until that batch retires.
func TestQueryAndStopDoNotSchedule(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	unstall := sync.OnceFunc(func() { close(release) })
	defer unstall() // before startRuntime's Close, which waits for the batch
	cs := &countingScheduler{Scheduler: sched.NewDefaultThrottle()}
	rt := startRuntime(t, func(cfg *Config) {
		cfg.Scheduler = cs
		cfg.StageFault = func(stage, seq int) time.Duration {
			if stage == 0 && seq == 3 { // prefill, one decode, then this one
				close(held)
				<-release
			}
			return 0
		}
	})
	h, err := rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: 64, MaxTokens: 8})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("third micro-batch never reached stage 0")
	}
	// A query is answered only from the driver's select, so one round trip
	// is a barrier: the fill that injected the stalled batch has returned.
	const group = int64(7)
	rt.MatchPrefix(group, 64)
	before := cs.calls.Load()
	for range 32 {
		rt.MatchPrefix(group, 64)
	}
	stopped := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		stopped <- rt.Shutdown(ctx)
	}()
	waitFor(t, "the driver to observe the stop", func() bool {
		rt.subMu.RLock()
		defer rt.subMu.RUnlock()
		return rt.stopping
	})
	rt.MatchPrefix(group, 64)
	if got := cs.calls.Load(); got != before {
		t.Fatalf("Schedule ran %d times across 33 queries and a stop with the batch still in flight", got-before)
	}
	unstall()
	if err := <-stopped; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	drainBatched(t, h)
	if reason := h.FinishReason(); reason != FinishLength {
		t.Fatalf("finish reason = %q, want the drain to serve the request", reason)
	}
	if got := cs.calls.Load(); got <= before {
		t.Fatal("retiring the stalled batch did not schedule")
	}
}

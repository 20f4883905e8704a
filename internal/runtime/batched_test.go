package runtime

import (
	"context"
	"fmt"
	goruntime "runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"gllm/internal/core"
	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/sched"
)

// collectBatched drains a handle through Next, copying each
// slab (the slices are recycled by the following Next call).
func collectBatched(t *testing.T, h *Handle) []TokenEvent {
	t.Helper()
	var events []TokenEvent
	deadline, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		evs := h.Next(deadline)
		if evs == nil {
			if deadline.Err() != nil {
				t.Fatalf("timed out after %d events", len(events))
			}
			return events
		}
		events = append(events, evs...)
	}
}

func TestBatchedStreamsAllTokens(t *testing.T) {
	rt := testRuntime(t, true)
	h, err := rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: 100, MaxTokens: 20})
	if err != nil {
		t.Fatal(err)
	}
	if h.Events != nil {
		t.Fatal("batched handle exposes an events channel")
	}
	events := collectBatched(t, h)
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
	if r := events[19].Reason; r != FinishLength {
		t.Fatalf("terminal reason = %q", r)
	}
	select {
	case <-h.Done():
	default:
		t.Fatal("done not closed after terminal event")
	}
	if r := h.FinishReason(); r != FinishLength {
		t.Fatalf("FinishReason = %q", r)
	}
	// The stream is terminal: further Next calls return nil immediately.
	if evs := h.Next(context.Background()); evs != nil {
		t.Fatalf("Next after terminal returned %d events", len(evs))
	}
}

// Delivery has no second transport to serve as its reference, so the oracle
// is the closed form: under every scheduler policy a completed request's
// stream is Index 0…n−1 in order, Token = TokenValue(id, i), Text =
// TokenText(Token), Finished and FinishLength on the last event only —
// whether drained through Next or through the Submit shim's channel.
func TestBatchedMatchesPerTokenAcrossSchedulers(t *testing.T) {
	names := []string{
		"sarathi", "gllm-ck", "vllm-ve", "td-pipe", "orca",
		"batch-level", "gllm", "gllm-no-wt", "gllm-no-ut",
	}
	// A small mixed workload: enough requests to force multi-request
	// batches, small enough that the full cross stays fast.
	type spec struct{ prompt, out int }
	workload := []spec{
		{64, 8}, {200, 5}, {33, 16}, {500, 3}, {128, 12}, {80, 7},
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			for _, shim := range []bool{false, true} {
				s, err := sched.ByName(name, 2048, core.DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				rt, err := Start(Config{
					Model:     model.Qwen25_14B,
					GPU:       gpu.L20,
					Topo:      network.IntraNode(4, network.PCIe),
					Scheduler: s,
					Async:     true,
					TimeScale: 0,
				})
				if err != nil {
					t.Fatal(err)
				}
				handles := make([]*Handle, len(workload))
				for i, wsp := range workload {
					if shim {
						handles[i], err = rt.Submit(wsp.prompt, wsp.out)
					} else {
						handles[i], err = rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: wsp.prompt, MaxTokens: wsp.out})
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				for i, h := range handles {
					var events []TokenEvent
					if shim {
						events = collect(t, h)
					} else {
						events = collectBatched(t, h)
					}
					n := workload[i].out
					if len(events) != n {
						t.Fatalf("%s shim=%v request %d: %d events, want %d", name, shim, i, len(events), n)
					}
					for k, ev := range events {
						want := TokenEvent{ReqID: h.ID, Index: k, Token: TokenValue(h.ID, k), Finished: k == n-1}
						want.Text = TokenText(want.Token)
						if want.Finished {
							want.Reason = FinishLength
						}
						if ev != want {
							t.Fatalf("%s shim=%v request %d event %d = %+v, want %+v", name, shim, i, k, ev, want)
						}
					}
					if r := h.FinishReason(); r != FinishLength {
						t.Fatalf("%s shim=%v request %d finished %q", name, shim, i, r)
					}
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				if err := rt.Shutdown(ctx); err != nil {
					t.Fatal(err)
				}
				cancel()
			}
		})
	}
}

// pacedRuntime builds a runtime whose stage 0 stalls 2ms per micro-batch so
// cancellation reliably lands mid-generation.
func pacedRuntime(t *testing.T) *Runtime {
	t.Helper()
	rt, err := Start(Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
		TimeScale: 0,
		StageFault: func(stage, seq int) time.Duration {
			if stage == 0 {
				return 2 * time.Millisecond
			}
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt
}

// Cancelling a batched request mid-stream delivers exactly one terminal
// abort event and Next then reports a drained stream.
func TestBatchedCancelMidBatch(t *testing.T) {
	rt := pacedRuntime(t)
	h, err := rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: 64, MaxTokens: 100000})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first delivered slab, then cancel mid-generation.
	first := h.Next(context.Background())
	if first == nil {
		t.Fatal("stream ended before any tokens")
	}
	h.Cancel()
	var tail []TokenEvent
	deadline, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		evs := h.Next(deadline)
		if evs == nil {
			if deadline.Err() != nil {
				t.Fatal("cancelled stream never terminated")
			}
			break
		}
		tail = append(tail, evs...)
	}
	if len(tail) == 0 {
		t.Fatal("no terminal event after cancel")
	}
	last := tail[len(tail)-1]
	if !last.Finished || last.Reason != FinishCancelled || last.Text != "" {
		t.Fatalf("terminal event = %+v", last)
	}
	terminal := 0
	for _, ev := range tail {
		if ev.Finished {
			terminal++
		}
	}
	if terminal != 1 {
		t.Fatalf("%d terminal events in tail", terminal)
	}
	if r := h.FinishReason(); r != FinishCancelled {
		t.Fatalf("FinishReason = %q", r)
	}
}

// A context cancellation aborts a batched request just like Handle.Cancel,
// and Next with the cancelled context returns promptly (the terminal abort
// event is still observable with a fresh context).
func TestBatchedContextCancel(t *testing.T) {
	rt := pacedRuntime(t)
	ctx, cancel := context.WithCancel(context.Background())
	h, err := rt.SubmitBatchedSpec(ctx, SubmitSpec{PromptLen: 64, MaxTokens: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if evs := h.Next(ctx); evs == nil {
		t.Fatal("stream ended before any tokens")
	}
	cancel()
	// Next with the dead context must not block.
	if evs := h.Next(ctx); evs != nil && ctx.Err() == nil {
		t.Fatal("Next ignored context cancellation")
	}
	// The stream itself still terminates with the abort event.
	sawTerminal := false
	deadline, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	for {
		evs := h.Next(deadline)
		if evs == nil {
			if deadline.Err() != nil {
				t.Fatal("stream never terminated after context cancel")
			}
			break
		}
		for _, ev := range evs {
			if ev.Finished {
				sawTerminal = true
				if ev.Reason != FinishCancelled {
					t.Fatalf("terminal reason = %q", ev.Reason)
				}
			}
		}
	}
	if !sawTerminal {
		t.Fatal("no terminal event observed")
	}
	<-h.Done()
}

// nonComparableCtx is a context whose dynamic type cannot be compared, so
// Next must compare Done channels, never contexts.
type nonComparableCtx struct {
	context.Context
	_ []int
}

// A consumer parked in Next returns nil within a second of its context's
// cancellation — under the submit context through the abort hook's wake,
// under any other context through its own Done — and the request ends
// cancelled. The lone request is held in a first batch stalled 2 s, so the
// consumer has nothing to read until the cancel.
func TestNextWakesOnSubmitCancel(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctxs func(context.Context) (submit, next context.Context)
	}{
		{"submit context", func(c context.Context) (context.Context, context.Context) { return c, c }},
		{"foreign context", func(c context.Context) (context.Context, context.Context) {
			return context.Background(), c
		}},
		{"non-comparable context", func(c context.Context) (context.Context, context.Context) {
			nc := nonComparableCtx{Context: c}
			return nc, nc
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rt := startRuntime(t, func(cfg *Config) {
				cfg.WatchdogTimeout = -1
				cfg.StageFault = func(stage, seq int) time.Duration {
					if stage == 0 && seq == 1 {
						return 2 * time.Second
					}
					return 0
				}
			})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			submitCtx, nextCtx := tc.ctxs(ctx)
			h, err := rt.SubmitBatchedSpec(submitCtx, SubmitSpec{PromptLen: 16, MaxTokens: 4})
			if err != nil {
				t.Fatal(err)
			}
			got := make(chan []TokenEvent, 1)
			go func() { got <- h.Next(nextCtx) }()
			waitFor(t, "the consumer to park", func() bool {
				h.dmu.Lock()
				defer h.dmu.Unlock()
				return h.waiting
			})
			cancel()
			select {
			case evs := <-got:
				if evs != nil {
					t.Fatalf("Next returned %+v after cancel, want nil", evs)
				}
			case <-time.After(time.Second):
				t.Fatal("Next still parked 1 s after cancel")
			}
			h.Cancel() // what a frontend does when its client goes away
			select {
			case <-h.Done():
			case <-time.After(10 * time.Second):
				t.Fatal("request not terminated after cancel")
			}
			if r := h.FinishReason(); r != FinishCancelled {
				t.Fatalf("FinishReason = %q, want %q", r, FinishCancelled)
			}
		})
	}
}

// Graceful drain completes queued batched work (streams end with "length"),
// mirroring the per-token drain guarantee.
func TestBatchedShutdownDrains(t *testing.T) {
	rt, err := Start(Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
		TimeScale: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	handles := make([]*Handle, n)
	for i := range handles {
		handles[i], err = rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: 50 + i*13, MaxTokens: 4 + i})
		if err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		events := collectBatched(t, h)
		if len(events) != 4+i {
			t.Fatalf("request %d: %d events, want %d", i, len(events), 4+i)
		}
		if r := h.FinishReason(); r != FinishLength {
			t.Fatalf("request %d finished %q", i, r)
		}
	}
}

// Close aborts in-flight batched requests: every handle terminates exactly
// once with FinishShutdown and a drained Next.
func TestBatchedCloseAborts(t *testing.T) {
	rt := pacedRuntime(t)
	const n = 4
	handles := make([]*Handle, n)
	var err error
	for i := range handles {
		handles[i], err = rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: 64, MaxTokens: 100000})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Let at least one request start generating before the kill.
	h0 := handles[0]
	if evs := h0.Next(context.Background()); evs == nil {
		t.Fatal("stream ended before any tokens")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		terminal := 0
		deadline, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		for {
			evs := h.Next(deadline)
			if evs == nil {
				if deadline.Err() != nil {
					t.Fatalf("request %d never terminated after Close", i)
				}
				break
			}
			for _, ev := range evs {
				if ev.Finished {
					terminal++
				}
			}
		}
		cancel()
		if terminal != 1 {
			t.Fatalf("request %d: %d terminal events", i, terminal)
		}
		if r := h.FinishReason(); r != FinishShutdown {
			t.Fatalf("request %d finished %q", i, r)
		}
	}
}

// Concurrent batched submitters, half of which cancel mid-stream: every
// stream sees exactly one terminal event and every handle's Done fires.
func TestBatchedTerminatesExactlyOnceUnderLoad(t *testing.T) {
	rt := testRuntime(t, true)
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			h, err := rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: 40 + k*7, MaxTokens: 6 + k%9})
			if err != nil {
				errs <- err
				return
			}
			if k%2 == 1 {
				h.Cancel() // race the cancel against natural completion
			}
			deadline, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			terminal := 0
			for {
				evs := h.Next(deadline)
				if evs == nil {
					if deadline.Err() != nil {
						errs <- fmt.Errorf("request %d timed out", k)
						return
					}
					break
				}
				for _, ev := range evs {
					if ev.Finished {
						terminal++
					}
				}
			}
			if terminal != 1 {
				errs <- fmt.Errorf("request %d: %d terminal events", k, terminal)
				return
			}
			select {
			case <-h.Done():
			default:
				errs <- fmt.Errorf("request %d: done not closed", k)
				return
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubmitAllocsPerRequest is the per-request half of the allocation
// guard: one submit and drain with a background context allocates the
// request and its in-flight chunk list, and the handle with its two
// channels. A new per-request allocation on the submit path fails it.
func TestSubmitAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; guard runs in normal builds")
	}
	rt, err := Start(Config{
		Model:           model.Qwen25_14B,
		GPU:             gpu.L20,
		Topo:            network.IntraNode(2, network.PCIe),
		Scheduler:       sched.NewDefaultThrottle(),
		Async:           true,
		TimeScale:       0,
		WatchdogTimeout: -1, // no ticker goroutine mid-measurement
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()
	run := func() {
		h, err := rt.SubmitBatchedSpec(ctx, SubmitSpec{PromptLen: 8, MaxTokens: 4})
		if err != nil {
			t.Fatal(err)
		}
		for h.Next(ctx) != nil {
		}
	}
	for range 256 {
		run() // warm the slab, batch and metrics state; measured ids box to the heap
	}
	const want = 5
	got := testing.AllocsPerRun(500, run)
	t.Logf("allocs/request = %.2f", got)
	if got > want {
		t.Fatalf("submit + drain allocates %.2f objects per request, want %d", got, want)
	}
}

// TestSteadyStateAllocsPerToken is the regression guard for the zero-alloc
// serving path (wired into `make check`): once the pools are warm, driving a
// request through submit → schedule → micro-batch → slab delivery must not
// allocate per token. AllocsPerRun cannot observe the driver/worker
// goroutines, so the guard reads process-wide Mallocs around a measured
// stream with GC parked. Per-request setup (the request and its handle,
// TestSubmitAllocsPerRequest) is real but amortizes to well under one allocation per token
// at any realistic output length; the bound enforces exactly that.
func TestSteadyStateAllocsPerToken(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; guard runs in normal builds")
	}
	rt, err := Start(Config{
		Model:           model.Qwen25_14B,
		GPU:             gpu.L20,
		Topo:            network.IntraNode(4, network.PCIe),
		Scheduler:       sched.NewDefaultThrottle(),
		Async:           true,
		TimeScale:       0,
		WatchdogTimeout: -1, // no ticker goroutine mid-measurement
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	run := func(tokens int) {
		h, err := rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: 128, MaxTokens: tokens})
		if err != nil {
			t.Fatal(err)
		}
		for {
			if evs := h.Next(context.Background()); evs == nil {
				return
			}
		}
	}
	// Warm every pool on the path: slabs, micro-batches, scheduler batches,
	// worker input scratch.
	for i := 0; i < 4; i++ {
		run(512)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	goruntime.GC()
	const tokens = 4096
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	run(tokens)
	goruntime.ReadMemStats(&after)
	perToken := float64(after.Mallocs-before.Mallocs) / tokens
	t.Logf("allocs/token = %.4f (%d mallocs / %d tokens)",
		perToken, after.Mallocs-before.Mallocs, tokens)
	if perToken >= 0.5 {
		t.Fatalf("steady-state serving allocates %.3f objects/token (want < 0.5): "+
			"a per-token allocation crept back into the hot path", perToken)
	}
}

package runtime

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/sched"
)

// The driver run by hand, with the test as its clock goroutine, on a PP-4
// runtime at TimeScale 0: every slot in flight and due. wait then takes the
// retirement alone, though a submission and a cancel are ready beside it,
// and the poll that handles it admits the submission and serves the cancel
// before the retirement's fill, so the new request rides the batch that
// fill injects and the cancelled one does not.
func TestPollServesQueuedEventsBeforeRetireFill(t *testing.T) {
	rt, d, err := build(Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	submit := func() *Handle {
		t.Helper()
		h, err := rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: 16, MaxTokens: 8})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	injected := func() *microBatch {
		t.Helper()
		select {
		case mb := <-rt.pipeCh:
			return mb
		default:
			t.Fatal("the fill injected no batch")
			return nil
		}
	}
	var flight []*microBatch
	for range len(d.stages.Free) {
		submit()
		if !d.poll(nil) {
			t.Fatal("poll found no queued submission")
		}
		flight = append(flight, injected())
	}
	if d.Free() != 0 {
		t.Fatalf("%d slots free after %d injections", d.Free(), len(flight))
	}
	cancelled := submit()
	d.poll(nil) // admitted; no slot to schedule it into
	if len(rt.pipeCh) != 0 {
		t.Fatal("a batch was injected with no slot free")
	}

	cancelled.Cancel()
	late := submit()
	rt.doneCh <- flight[0]
	for range 8 { // a five-way wait takes the retirement 1 time in 3
		due := d.wait()
		if due != flight[0] || len(rt.submitCh) != 1 || len(rt.cancelCh) != 1 {
			t.Fatalf("wait returned %p with %d submissions and %d cancels queued; want the retirement %p alone",
				due, len(rt.submitCh), len(rt.cancelCh), flight[0])
		}
		rt.doneCh <- due
	}
	if !d.poll(<-rt.doneCh) {
		t.Fatal("poll handled nothing")
	}
	if got := cancelled.FinishReason(); got != FinishCancelled {
		t.Fatalf("the cancelled request finished %q, want %q", got, FinishCancelled)
	}
	next := injected()
	var rode bool
	for _, c := range next.batch.Chunks {
		rode = rode || c.Req == late.req
		if c.Req == cancelled.req {
			t.Fatal("the cancelled request was scheduled: its cancel was served after the fill")
		}
	}
	if !rode {
		t.Fatal("the late submission does not ride the retirement's batch: it was admitted after the fill")
	}
}

// A TimeScale 0 runtime kept saturated by closed-loop streams, where a
// retirement is always ready, still admits a late submission, serves a
// Cancel and finishes a graceful Shutdown, each within a deadline.
func TestSaturatedDriverStarvesNoSource(t *testing.T) {
	rt := startRuntime(t, nil)
	const deadline = 10 * time.Second
	ctx := context.Background()
	var wg sync.WaitGroup
	for range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				h, err := rt.SubmitBatchedSpec(ctx, SubmitSpec{PromptLen: 64, MaxTokens: 32})
				if err != nil {
					if !errors.Is(err, ErrStopped) {
						t.Error(err)
					}
					return
				}
				for h.Next(ctx) != nil {
				}
			}
		}()
	}
	waitFor(t, "a saturated pipeline", func() bool { return rt.Stats().Iterations > 256 })

	within := func(what string, done <-chan struct{}) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(deadline):
			t.Fatalf("%s took longer than %v under saturation", what, deadline)
		}
	}
	late, err := rt.SubmitBatchedSpec(ctx, SubmitSpec{PromptLen: 64, MaxTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	within("a late submission", late.Done())
	if got := late.FinishReason(); got != FinishLength {
		t.Fatalf("late submission finished %q, want %q", got, FinishLength)
	}

	long, err := rt.SubmitBatchedSpec(ctx, SubmitSpec{PromptLen: 64, MaxTokens: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if long.Next(ctx) == nil {
		t.Fatal("the long request ended before its first token")
	}
	long.Cancel()
	within("a cancel", long.Done())
	if got := long.FinishReason(); got != FinishCancelled {
		t.Fatalf("cancelled request finished %q, want %q", got, FinishCancelled)
	}

	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		sctx, cancel := context.WithTimeout(ctx, deadline)
		defer cancel()
		if err := rt.Shutdown(sctx); err != nil {
			t.Errorf("graceful shutdown: %v", err)
		}
	}()
	within("Shutdown", stopped)
	wg.Wait()
}

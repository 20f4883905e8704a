package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"gllm/internal/runtime"
)

// newTestRouter wires a router around fake engines with a fake clock.
func newTestRouter(t *testing.T, retry RetryPolicy, engines ...*fakeEngine) (*Router, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	r := New(Config{Policy: NewRoundRobin(), Retry: retry, Clock: clk, Seed: 11})
	for i, e := range engines {
		if _, err := r.Add(string(rune('a'+i)), e); err != nil {
			t.Fatal(err)
		}
	}
	return r, clk
}

// Pure exponential backoff (hints disabled): each sleep is base<<attempt
// capped at MaxDelay, plus jitter strictly within [0, base/2) — so every
// recorded sleep lands in [base, 1.5*base).
func TestBackoffExponentialWithBoundedJitter(t *testing.T) {
	eng := newFakeEngine(okPressure())
	eng.rejectFirst = 100 // always full
	retry := RetryPolicy{
		MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond,
		Budget: time.Hour, HonorRetryAfter: false,
	}
	r, clk := newTestRouter(t, retry, eng)

	_, _, err := r.Submit(context.Background(), Request{PromptLen: 8, MaxTokens: 4})
	if err == nil {
		t.Fatal("want terminal error")
	}
	if !errors.Is(err, runtime.ErrQueueFull) {
		t.Fatalf("terminal error %v must wrap ErrQueueFull", err)
	}
	sleeps := clk.recorded()
	wantBase := []time.Duration{10, 20, 40, 40} // ms; capped at MaxDelay
	if len(sleeps) != len(wantBase) {
		t.Fatalf("recorded %d sleeps, want %d: %v", len(sleeps), len(wantBase), sleeps)
	}
	for i, d := range sleeps {
		base := wantBase[i] * time.Millisecond
		if d < base || d >= base+base/2 {
			t.Fatalf("sleep %d = %v, want in [%v, %v)", i, d, base, base+base/2)
		}
	}
	if got := r.Retries429(); got != 4 {
		t.Fatalf("Retries429 = %d, want 4", got)
	}
	if got := r.GaveUp(); got != 1 {
		t.Fatalf("GaveUp = %d, want 1", got)
	}
}

// With HonorRetryAfter, the rejecting replica's Retry-After hint raises
// the backoff floor above the exponential schedule.
func TestBackoffHonorsRetryAfterHint(t *testing.T) {
	// KVFree 0.25 → hint 3s (see runtime.TestRetryAfterHintDerivation).
	eng := newFakeEngine(runtime.Pressure{KVFree: 0.25, Health: runtime.HealthOK})
	eng.rejectFirst = 100
	retry := RetryPolicy{
		MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: time.Second,
		Budget: time.Hour, HonorRetryAfter: true,
	}
	r, clk := newTestRouter(t, retry, eng)

	_, _, err := r.Submit(context.Background(), Request{PromptLen: 8, MaxTokens: 4})
	if !errors.Is(err, runtime.ErrQueueFull) {
		t.Fatalf("err = %v", err)
	}
	hint := 3 * time.Second
	for i, d := range clk.recorded() {
		if d < hint || d >= hint+hint/2 {
			t.Fatalf("sleep %d = %v, want hint-floored in [%v, %v)", i, d, hint, hint+hint/2)
		}
	}
	if len(clk.recorded()) != 2 {
		t.Fatalf("sleeps = %v, want 2", clk.recorded())
	}
}

// When the next sleep would blow the total budget, Submit gives up
// immediately with the terminal error instead of sleeping.
func TestBackoffBudgetExhaustion(t *testing.T) {
	eng := newFakeEngine(okPressure())
	eng.rejectFirst = 100
	retry := RetryPolicy{
		MaxAttempts: 10, BaseDelay: 20 * time.Millisecond, MaxDelay: time.Second,
		Budget: 10 * time.Millisecond, HonorRetryAfter: false,
	}
	r, clk := newTestRouter(t, retry, eng)

	_, _, err := r.Submit(context.Background(), Request{PromptLen: 8, MaxTokens: 4})
	if !errors.Is(err, runtime.ErrQueueFull) {
		t.Fatalf("err = %v", err)
	}
	if got := clk.recorded(); len(got) != 0 {
		t.Fatalf("budget-bound submit slept anyway: %v", got)
	}
	if r.Retries429() != 0 || r.GaveUp() != 1 {
		t.Fatalf("Retries429 = %d, GaveUp = %d; want 0, 1", r.Retries429(), r.GaveUp())
	}
}

// Transient saturation: rejections are retried on fresh picks and the
// submission eventually lands, with counters attributing the rejects.
func TestRetryEventuallySucceeds(t *testing.T) {
	rt := startReplica(t, nil)
	eng := newFakeEngine(okPressure())
	eng.rejectFirst = 2
	eng.delegate = rt
	retry := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond,
		Budget: time.Hour}
	r, clk := newTestRouter(t, retry, eng)

	h, rep, err := r.Submit(context.Background(), Request{PromptLen: 32, MaxTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n := 0
	for evs := h.Next(ctx); evs != nil; evs = h.Next(ctx) {
		for _, ev := range evs {
			if ev.Text != "" {
				n++
			}
		}
	}
	if n != 4 {
		t.Fatalf("delivered %d tokens, want 4", n)
	}
	if rep.Rejects() != 2 || rep.Routed() != 1 {
		t.Fatalf("Rejects = %d, Routed = %d; want 2, 1", rep.Rejects(), rep.Routed())
	}
	if len(clk.recorded()) != 2 || r.GaveUp() != 0 {
		t.Fatalf("sleeps = %v, GaveUp = %d", clk.recorded(), r.GaveUp())
	}
}

// Context cancellation during a backoff sleep surfaces ctx.Err, not the
// saturation error.
func TestSubmitCancelledDuringBackoff(t *testing.T) {
	eng := newFakeEngine(okPressure())
	eng.rejectFirst = 100
	retry := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond,
		Budget: time.Hour}
	r, _ := newTestRouter(t, retry, eng)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := r.Submit(ctx, Request{PromptLen: 8, MaxTokens: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// An empty cluster — or one where every replica is drained or degraded —
// yields a terminal error wrapping ErrQueueFull so HTTP frontends answer
// 429, and ErrNoReplica for callers that care about the cause.
func TestSubmitNoRoutableReplica(t *testing.T) {
	retry := RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond,
		Budget: time.Hour}
	r, _ := newTestRouter(t, retry)
	_, _, err := r.Submit(context.Background(), Request{PromptLen: 8, MaxTokens: 4})
	if !errors.Is(err, ErrNoReplica) || !errors.Is(err, runtime.ErrQueueFull) {
		t.Fatalf("empty cluster err = %v", err)
	}

	// A degraded replica is present but never routable.
	bad := newFakeEngine(runtime.Pressure{KVFree: 1, Health: runtime.HealthDegraded})
	r2, _ := newTestRouter(t, retry, bad)
	_, _, err = r2.Submit(context.Background(), Request{PromptLen: 8, MaxTokens: 4})
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("degraded-only cluster err = %v", err)
	}
	if bad.submits != 0 {
		t.Fatalf("degraded replica received %d submissions", bad.submits)
	}
}

// A MaxAttempts below 1 still makes attempts, so the terminal error always
// wraps a real cause; with none made it read "gave up after 0 attempts …
// %!w(<nil>)".
func TestSubmitNegativeMaxAttempts(t *testing.T) {
	eng := newFakeEngine(okPressure())
	eng.rejectFirst = 100
	retry := RetryPolicy{MaxAttempts: -3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond,
		Budget: time.Hour}
	r, _ := newTestRouter(t, retry, eng)
	_, _, err := r.Submit(context.Background(), Request{PromptLen: 8, MaxTokens: 4})
	if !errors.Is(err, runtime.ErrQueueFull) {
		t.Fatalf("err = %v, want one wrapping ErrQueueFull", err)
	}
	if strings.Contains(err.Error(), "%!") {
		t.Fatalf("err %q wraps a nil error", err)
	}
	if eng.submits == 0 {
		t.Fatal("no attempt made")
	}
}

package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/metrics"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/runtime"
	"gllm/internal/sched"
)

// fakeEngine is a scriptable Engine: fixed pressure view, fabricated
// prefix residency, and an optional rejection budget before submissions
// are delegated to a real runtime (nil delegate fails all submissions).
type fakeEngine struct {
	mu          sync.Mutex
	pressure    runtime.Pressure
	match       map[int64]int // group -> resident prefix tokens
	rejectFirst int           // reject this many submissions with ErrQueueFull
	delegate    *runtime.Runtime
	collector   metrics.Live
	snap        *runtime.Snapshot // Stats override (nil: derive from pressure)
	submits     int
	matchCalls  int
}

func newFakeEngine(p runtime.Pressure) *fakeEngine {
	return &fakeEngine{pressure: p, match: map[int64]int{}}
}

func (f *fakeEngine) SubmitBatchedSpec(ctx context.Context, spec runtime.SubmitSpec) (*runtime.Handle, error) {
	f.mu.Lock()
	f.submits++
	reject := f.rejectFirst > 0
	if reject {
		f.rejectFirst--
	}
	delegate := f.delegate
	f.mu.Unlock()
	if reject || delegate == nil {
		return nil, runtime.ErrQueueFull
	}
	return delegate.SubmitBatchedSpec(ctx, spec)
}

func (f *fakeEngine) MatchPrefix(group int64, maxTokens int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.matchCalls++
	m := f.match[group]
	if m > maxTokens {
		m = maxTokens
	}
	return m
}

func (f *fakeEngine) Pressure() runtime.Pressure {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pressure
}

func (f *fakeEngine) setPressure(p runtime.Pressure) {
	f.mu.Lock()
	f.pressure = p
	f.mu.Unlock()
}

func (f *fakeEngine) Stats() runtime.Snapshot {
	f.mu.Lock()
	snap := f.snap
	f.mu.Unlock()
	if snap != nil {
		return *snap
	}
	p := f.Pressure()
	return runtime.Snapshot{KVFreeRate: p.KVFree, Resident: p.Resident, Health: p.Health}
}

func (f *fakeEngine) Metrics() *metrics.Live { return &f.collector }

func (f *fakeEngine) Shutdown(ctx context.Context) error {
	if f.delegate != nil {
		return f.delegate.Shutdown(ctx)
	}
	return nil
}

func (f *fakeEngine) Close() error {
	if f.delegate != nil {
		return f.delegate.Close()
	}
	return nil
}

// okPressure is a healthy, idle pressure view.
func okPressure() runtime.Pressure {
	return runtime.Pressure{KVFree: 1, Health: runtime.HealthOK}
}

// fakeReplicas builds a router-less candidate slice for direct Policy
// tests.
func fakeReplicas(engines ...*fakeEngine) []*Replica {
	out := make([]*Replica, len(engines))
	for i, e := range engines {
		out[i] = &Replica{ID: string(rune('a' + i)), eng: e}
	}
	return out
}

// startReplica boots a small real runtime for integration tests.
func startReplica(t *testing.T, mutate func(*runtime.Config)) *runtime.Runtime {
	t.Helper()
	cfg := runtime.Config{
		Model:             model.Qwen25_14B,
		GPU:               gpu.L20,
		Topo:              network.IntraNode(2, network.PCIe),
		Scheduler:         sched.NewDefaultThrottle(),
		Async:             true,
		EnablePrefixCache: true,
		TimeScale:         0,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := runtime.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

// fakeClock advances instantly and records every sleep.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(0, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
	c.mu.Unlock()
	return nil
}

func (c *fakeClock) recorded() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.sleeps...)
}

// drainStream drains a handle within timeout and returns the real
// (non-empty Text) tokens and the terminal reason; an error means it hung.
// It never fails the test itself, so stream goroutines can use it.
func drainStream(h *runtime.Handle, timeout time.Duration) (int, runtime.FinishReason, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	tokens := 0
	for evs := h.Next(ctx); evs != nil; evs = h.Next(ctx) {
		for _, ev := range evs {
			if ev.Text != "" {
				tokens++
			}
		}
	}
	if ctx.Err() != nil {
		return tokens, "", fmt.Errorf("stream %d hung (%d tokens within %v)", h.ID, tokens, timeout)
	}
	return tokens, h.FinishReason(), nil
}

package runtime

import (
	"context"
	"errors"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gllm/internal/core"
	"gllm/internal/engine"
	"gllm/internal/invariant"
	"gllm/internal/invariant/mutant"
	"gllm/internal/network"
	"gllm/internal/sched"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// finalWatch records the driver's Final call on the observer it wraps.
type finalWatch struct {
	engine.BatchObserver
	finals int
	final  error
}

func (f *finalWatch) Final(now time.Duration) error {
	f.finals++
	f.final = f.BatchObserver.Final(now)
	return f.final
}

// checkedRuntime starts a runtime on the invariant harness's toy deployment
// (a KV cache of a few thousand tokens, so load evicts and preempts) with
// internal/invariant's checker on the driver's pool. The checker is read
// only after Shutdown: the driver goroutine drives it.
func checkedRuntime(t *testing.T, s sched.Scheduler, mutate func(*Config)) (*Runtime, *invariant.Collector, *finalWatch) {
	t.Helper()
	col, watch := invariant.NewCollector(), new(finalWatch)
	base := goruntime.NumGoroutine()
	cfg := Config{
		Model:     invariant.HarnessModel(),
		GPU:       invariant.HarnessGPU(),
		Topo:      network.IntraNode(4, network.PCIe),
		MemUtil:   0.5,
		Scheduler: s,
		Async:     true,
		observe: func(p *sched.Pool, s sched.Scheduler) engine.BatchObserver {
			watch.BatchObserver = col.Observer(p, s)
			return watch
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rt.Close()
		// The clock goroutine outlives Close briefly; a later test that
		// counts goroutines must not see it exit.
		waitFor(t, "the runtime's goroutines to exit", func() bool { return goruntime.NumGoroutine() <= base })
	})
	return rt, col, watch
}

// drain reads a handle's stream to its end and returns its finish reason.
func drain(t *testing.T, h *Handle, cancelAfterFirst bool) FinishReason {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for first := true; h.Next(ctx) != nil; first = false {
		if first && cancelAfterFirst {
			h.Cancel()
		}
	}
	if ctx.Err() != nil {
		t.Errorf("request %d: stream did not end", h.ID)
	}
	return h.FinishReason()
}

// TestLiveInvariants runs a seeded conversation trace through every
// sched.ByName policy on the goroutine runtime, async and coupled, with
// prefix cache and CPP on, under the simulator's invariant checker: about
// one stream in ten is cancelled after its first tokens, and a graceful
// Shutdown lands while half the conversations are still talking. The
// checker must audit cycles, see no violation and close with a clean Final.
func TestLiveInvariants(t *testing.T) {
	spec := workload.ConversationSpec{
		Dataset: workload.Dataset{Name: "tiny", InMu: 3.8, InSigma: 0.6, OutMu: 2.8, OutSigma: 0.6,
			InMin: 4, InMax: 96, OutMin: 2, OutMax: 40},
		Rate: 8, Window: 3 * time.Second, MaxTurns: 4, ThinkMean: time.Second, FollowUpLen: 16, MaxContext: 320,
	}
	items := workload.Conversations(stats.NewRNG(34), spec)
	convs := map[int64][]workload.Item{}
	for _, it := range items {
		convs[it.PrefixGroup] = append(convs[it.PrefixGroup], it)
	}
	var cancelled atomic.Int64
	for _, name := range []string{"sarathi", "gllm", "gllm-no-wt", "gllm-no-ut", "gllm-ck", "vllm-ve", "td-pipe", "orca", "batch-level"} {
		for _, async := range []bool{true, false} {
			s, err := sched.ByName(name, 64, core.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			rt, col, watch := checkedRuntime(t, s, func(c *Config) {
				c.Async, c.EnablePrefixCache, c.EnableCPP = async, true, true
			})
			rng := stats.NewRNG(uint64(len(name)))
			var wg sync.WaitGroup
			var ended atomic.Int64
			for _, turns := range convs {
				cancelTurn := make([]bool, len(turns))
				for i := range cancelTurn {
					cancelTurn[i] = rng.Float64() < 0.1
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer ended.Add(1)
					for i, it := range turns {
						h, err := rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: it.PromptLen,
							MaxTokens: it.OutputLen, PrefixGroup: it.PrefixGroup, SharedPrefixLen: it.SharedPrefixLen})
						if errors.Is(err, ErrStopped) {
							return
						}
						if err != nil {
							t.Error(err)
							return
						}
						switch r := drain(t, h, cancelTurn[i]); r {
						case FinishCancelled:
							cancelled.Add(1)
						case FinishLength:
						default:
							t.Errorf("%s: request %d ended %q during a graceful drain", name, h.ID, r)
						}
					}
				}()
			}
			waitFor(t, "half the conversations", func() bool { return ended.Load() >= int64(len(convs)/2) })
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := rt.Shutdown(ctx); err != nil {
				t.Fatalf("%s async=%v: shutdown: %v", name, async, err)
			}
			cancel()
			wg.Wait()
			if err := col.Err(); err != nil {
				t.Errorf("%s async=%v: %v", name, async, err)
			}
			if col.Cycles() == 0 || watch.finals != 1 || watch.final != nil {
				t.Errorf("%s async=%v: %d cycles audited, Final called %d times (%v)",
					name, async, col.Cycles(), watch.finals, watch.final)
			}
			if st := rt.Stats(); st.Resident != 0 || st.KVFreeBlocks != st.KVTotalBlocks {
				t.Errorf("%s async=%v: stopped with %d resident, %d of %d KV blocks free",
					name, async, st.Resident, st.KVFreeBlocks, st.KVTotalBlocks)
			}
		}
	}
	if cancelled.Load() == 0 {
		t.Error("no stream was cancelled mid-flight")
	}
}

// TestLiveMutantsDetected plants internal/invariant's four mutant
// schedulers in the live driver: each must be caught under the invariant
// that catches it on the simulator, and the catch stops the runtime the way
// a violation aborts a simulated run — every handle still terminates.
func TestLiveMutantsDetected(t *testing.T) {
	for _, tc := range []struct {
		invariant string
		make      func() sched.Scheduler
	}{
		{invariant.InvBatchBudget, mutant.OverBudget},
		{invariant.InvKVOwnership, mutant.KVLeaker},
		{invariant.InvPrefillFIFO, mutant.FIFOBreaker},
		{invariant.InvWaitingPrefill, mutant.WPForgetter},
	} {
		t.Run(tc.invariant, func(t *testing.T) {
			rt, col, _ := checkedRuntime(t, tc.make(), nil)
			var handles []*Handle
			for _, it := range invariant.Workload(stats.NewRNG(11), 120, 96, 48) {
				h, err := rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: it.PromptLen, MaxTokens: it.OutputLen})
				if err != nil {
					break // the catch fenced the frontend
				}
				handles = append(handles, h)
			}
			for _, h := range handles {
				drain(t, h, false)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			rt.Shutdown(ctx)
			var v invariant.Violation
			if err := col.Err(); !errors.As(err, &v) || v.Invariant != tc.invariant {
				t.Fatalf("live mutant flagged as %v, want %s", err, tc.invariant)
			}
		})
	}
}

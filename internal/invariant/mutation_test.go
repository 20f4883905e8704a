package invariant

import (
	"errors"
	"testing"
	"time"

	"gllm/internal/core"
	"gllm/internal/kvcache"
	"gllm/internal/request"
	"gllm/internal/sched"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// The mutation self-tests prove the detector detects: each double plants
// one specific scheduler bug, and the harness must flag exactly that
// invariant on an ordinary randomized workload.

// overBudget builds legal Sarathi batches under a large budget while
// declaring a much smaller bound — the shape of a scheduler whose actual
// batches drift above its advertised budget.
type overBudget struct {
	inner    *sched.Sarathi
	declared int
}

func (o *overBudget) Name() string { return "mutant-over-budget" }
func (o *overBudget) Schedule(p *sched.Pool, now time.Duration) *sched.Batch {
	return o.inner.Schedule(p, now)
}
func (o *overBudget) BatchTokenBound(core.State) int { return o.declared }

// kvLeaker schedules legally but allocates KV blocks to a sequence no
// request owns — a leaked block.
type kvLeaker struct {
	inner  *sched.Sarathi
	calls  int
	leakAt int
}

func (l *kvLeaker) Name() string { return "mutant-kv-leak" }
func (l *kvLeaker) Schedule(p *sched.Pool, now time.Duration) *sched.Batch {
	b := l.inner.Schedule(p, now)
	if l.calls == l.leakAt {
		if err := p.KV.Allocate(kvcache.SeqID(1<<40), p.KV.BlockSize()); err != nil {
			panic(err)
		}
	}
	l.calls++
	return b
}

// fifoBreaker claims FIFO prefill admission but serves the second eligible
// waiting request, skipping the queue head.
type fifoBreaker struct{}

func (fifoBreaker) Name() string      { return "mutant-fifo" }
func (fifoBreaker) PrefillFIFO() bool { return true }
func (fifoBreaker) Schedule(p *sched.Pool, now time.Duration) *sched.Batch {
	b := &sched.Batch{}
	for _, r := range p.Decoding() {
		if r.State() != request.StateDecoding || r.DecodeBusy() {
			continue
		}
		id := kvcache.SeqID(r.ID)
		if !p.KV.CanAllocate(id, 1) {
			continue
		}
		if err := p.KV.Allocate(id, 1); err != nil {
			panic(err)
		}
		r.ScheduleDecode()
		b.Decodes = append(b.Decodes, r)
	}
	var eligible []*request.Request
	for _, r := range p.PrefillQueue() {
		if (r.State() == request.StateWaiting || r.State() == request.StatePrefilling) &&
			r.RemainingPrefill() > 0 && r.InFlightChunks() == 0 {
			eligible = append(eligible, r)
		}
	}
	pick := -1
	switch {
	case len(eligible) >= 2:
		pick = 1 // skip the head: the planted bug
	case len(eligible) == 1:
		pick = 0
	}
	if pick >= 0 {
		r := eligible[pick]
		chunk := r.RemainingPrefill()
		if chunk > 64 {
			chunk = 64
		}
		id := kvcache.SeqID(r.ID)
		for chunk > 0 && !p.KV.CanAllocate(id, chunk) {
			chunk /= 2
		}
		if chunk > 0 {
			ctx := r.PrefillDone() + r.InFlightPrefill()
			if err := p.KV.Allocate(id, chunk); err != nil {
				panic(err)
			}
			p.ScheduleChunk(r, chunk, now)
			b.Chunks = append(b.Chunks, sched.Chunk{Req: r, Tokens: chunk, CtxStart: ctx})
		}
	}
	return b
}

// wpForgetter schedules legally, but once evicts a mid-prefill request by
// hand — freeing its KV and restarting its prefill exactly as Pool.evict
// does — without telling the pool, so the committed tokens that wait again
// never return to #WP.
type wpForgetter struct {
	inner *sched.Sarathi
	done  bool
}

func (w *wpForgetter) Name() string { return "mutant-wp-forgotten-on-evict" }
func (w *wpForgetter) Schedule(p *sched.Pool, now time.Duration) *sched.Batch {
	if !w.done {
		for _, r := range p.PrefillQueue() {
			if r.State() == request.StatePrefilling && r.InFlightChunks() == 0 && r.PrefillDone() > 0 {
				p.KV.Free(kvcache.SeqID(r.ID))
				r.ResetPrefill()
				w.done = true
				break
			}
		}
	}
	return w.inner.Schedule(p, now)
}

// detectOnEveryLoop plants one mutant under each engine whose scheduler the
// caller chooses — pipeline (depth slots), tensor and tokenpar (one slot) —
// and demands the named invariant from all three. The disaggregated engine
// fixes its replicas' policy, so no mutant can reach it.
func detectOnEveryLoop(t *testing.T, seed uint64, invariant string, mk func() sched.Scheduler) {
	t.Helper()
	items := Workload(stats.NewRNG(seed), 120, 96, 48)
	for _, eng := range []string{"pipeline", "tensor", "tokenpar"} {
		t.Run(eng, func(t *testing.T) {
			_, err := RunCombo(Combo{Engine: eng, Make: mk}, items)
			wantViolation(t, err, invariant)
		})
	}
}

func wantViolation(t *testing.T, err error, invariant string) Violation {
	t.Helper()
	if err == nil {
		t.Fatalf("mutant escaped: no violation reported, want %s", invariant)
	}
	var v Violation
	if !errors.As(err, &v) {
		t.Fatalf("mutant failed with a non-violation error: %v", err)
	}
	if v.Invariant != invariant {
		t.Fatalf("mutant flagged as %s (%s), want %s", v.Invariant, v.Detail, invariant)
	}
	return v
}

func TestMutationOverBudgetDetected(t *testing.T) {
	detectOnEveryLoop(t, 11, InvBatchBudget, func() sched.Scheduler {
		return &overBudget{inner: sched.NewSarathi(256), declared: 64}
	})
}

func TestMutationKVLeakDetected(t *testing.T) {
	detectOnEveryLoop(t, 12, InvKVOwnership, func() sched.Scheduler {
		return &kvLeaker{inner: sched.NewSarathi(256), leakAt: 3}
	})
}

func TestMutationFIFOReorderDetected(t *testing.T) {
	detectOnEveryLoop(t, 13, InvPrefillFIFO, func() sched.Scheduler { return fifoBreaker{} })
}

func TestMutationForgottenWaitingPrefillDetected(t *testing.T) {
	// A 32-token budget splits most prompts into several chunks, so a
	// mid-prefill request between chunks exists within the first batches.
	detectOnEveryLoop(t, 14, InvWaitingPrefill, func() sched.Scheduler {
		return &wpForgetter{inner: sched.NewSarathi(32)}
	})
}

// TestShrinkMinimizesMutantTrace: the FIFO mutant's 120-request failing
// trace shrinks to a handful of requests that still reproduce it.
func TestShrinkMinimizesMutantTrace(t *testing.T) {
	combo := Combo{Engine: "pipeline", Make: func() sched.Scheduler { return fifoBreaker{} }}
	items := Workload(stats.NewRNG(13), 120, 96, 48)
	_, orig := RunCombo(combo, items)
	wantViolation(t, orig, InvPrefillFIFO)

	min := Shrink(items, func(cand []workload.Item) bool {
		_, err := RunCombo(combo, cand)
		return sameFailure(orig, err)
	})
	if _, err := RunCombo(combo, min); err == nil {
		t.Fatalf("shrunken trace of %d requests no longer reproduces", len(min))
	}
	if len(min) >= len(items) {
		t.Fatalf("shrink made no progress: %d -> %d requests", len(items), len(min))
	}
	if len(min) > 8 {
		t.Errorf("reproducer larger than expected: %d requests (the bug needs only 2)", len(min))
	}
	t.Logf("shrunk %d -> %d requests: %+v", len(items), len(min), min)
}

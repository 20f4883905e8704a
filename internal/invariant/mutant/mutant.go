// Package mutant plants one known scheduler bug per constructor, for the
// invariant checker's self-tests on both pipeline loops: the simulator's
// engines (internal/invariant) and the live runtime (internal/runtime).
// Each constructor's doc names the invariant that must catch its bug. A
// fresh scheduler per call keeps runs independent.
package mutant

import (
	"time"

	"gllm/internal/core"
	"gllm/internal/kvcache"
	"gllm/internal/request"
	"gllm/internal/sched"
)

// OverBudget builds legal Sarathi batches under a 256-token budget while
// declaring a 64-token bound — a scheduler whose batches drift above its
// advertised budget. Caught as batch-budget.
func OverBudget() sched.Scheduler {
	return &overBudget{inner: sched.NewSarathi(256), declared: 64}
}

type overBudget struct {
	inner    *sched.Sarathi
	declared int
}

func (o *overBudget) Name() string { return "mutant-over-budget" }
func (o *overBudget) Schedule(p *sched.Pool, now time.Duration) *sched.Batch {
	return o.inner.Schedule(p, now)
}
func (o *overBudget) BatchTokenBound(core.State) int { return o.declared }

// KVLeaker schedules like Sarathi with a 256-token budget, but its fourth
// call allocates KV blocks to a sequence no request owns — a leaked block.
// Caught as kv-ownership.
func KVLeaker() sched.Scheduler { return &kvLeaker{inner: sched.NewSarathi(256), leakAt: 3} }

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

// FIFOBreaker claims FIFO prefill admission but serves the second eligible
// waiting request, skipping the queue head. Caught as prefill-fifo.
func FIFOBreaker() sched.Scheduler { return fifoBreaker{} }

type fifoBreaker struct{}

func (fifoBreaker) Name() string      { return "mutant-fifo" }
func (fifoBreaker) PrefillFIFO() bool { return true }
func (fifoBreaker) Schedule(p *sched.Pool, now time.Duration) *sched.Batch {
	b := p.GetBatch()
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
		chunk := min(r.RemainingPrefill(), 64)
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

// WPForgetter schedules like Sarathi with a 32-token budget — which splits
// most prompts into several chunks — but once evicts a mid-prefill request
// by hand, freeing its KV and restarting its prefill exactly as the pool's
// eviction does, without telling the pool: the committed tokens that wait
// again never return to #WP. Caught as waiting-prefill.
func WPForgetter() sched.Scheduler { return &wpForgetter{inner: sched.NewSarathi(32)} }

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

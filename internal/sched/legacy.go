package sched

import (
	"fmt"
	"slices"
	"time"

	"gllm/internal/request"
)

// The paper's §2.2 traces the evolution of LLM scheduling: batch-level
// (FasterTransformer), iteration-level (Orca), chunked hybrid
// (Sarathi-Serve), and finally Token Throttling. The two pre-Sarathi
// policies are implemented here so the whole lineage can be compared on
// one workload (the SchedulingEvolution experiment).

// buildPrefillFiltered is buildPrefill restricted to requests accepted by
// allow, optionally disabling chunking (whole prompts only — the
// pre-Sarathi behavior).
func (p *Pool) buildPrefillFiltered(b *Batch, budget int, now time.Duration, allow func(*request.Request) bool, wholePrompts bool) {
	// Same epoch-stamped membership scheme as buildPrefill.
	epoch := batchEpoch.Add(1)
	for _, c := range b.Chunks {
		c.Req.SchedMark = epoch
	}
	queue := p.prefillQ
	for _, r := range queue {
		if budget <= 0 {
			return
		}
		if r.SchedMark == epoch || r.RemainingPrefill() == 0 || r.InFlightChunks() > 0 || !allow(r) {
			continue
		}
		if r.State() != request.StateWaiting && r.State() != request.StatePrefilling {
			continue
		}
		id := kvSeq(r)
		chunk := r.RemainingPrefill()
		if wholePrompts {
			// All-or-nothing: the whole remaining prompt must fit in both
			// the budget and the KV cache, or the request waits.
			if chunk > budget || chunk > p.maxPrefillAllocatableFor(id) {
				continue
			}
		} else {
			if chunk > budget {
				chunk = budget
			}
			if fit := p.maxPrefillAllocatableFor(id); chunk > fit {
				chunk = fit
			}
			if chunk <= 0 {
				return
			}
		}
		if err := p.KV.Allocate(id, chunk); err != nil {
			panic(fmt.Sprintf("sched: legacy prefill alloc: %v", err))
		}
		ctxStart := r.PrefillDone()
		p.ScheduleChunk(r, chunk, now)
		b.Chunks = append(b.Chunks, Chunk{Req: r, Tokens: chunk, CtxStart: ctxStart})
		r.SchedMark = epoch
		budget -= chunk
	}
}

// buildDecodeFiltered is buildDecode restricted to requests accepted by
// allow (nil accepts all).
func (p *Pool) buildDecodeFiltered(b *Batch, maxSeqs int, allow func(*request.Request) bool) {
	if maxSeqs <= 0 {
		return
	}
	w := decodeWalk{p: p, list: p.decoding}
	scheduled := 0
	for i := 0; i < len(w.list); i++ {
		r := w.list[i]
		if scheduled >= maxSeqs {
			return
		}
		if allow != nil && !allow(r) || r.State() != request.StateDecoding || r.DecodeBusy() {
			continue
		}
		if !w.reserve(r) {
			continue // r was preempted (self) or cannot proceed this round
		}
		r.ScheduleDecode()
		b.Decodes = append(b.Decodes, r)
		scheduled++
	}
}

// Orca is iteration-level scheduling without chunked prefill (Orca, OSDI
// '22): requests enter and leave the batch at iteration boundaries, but a
// prompt is always processed whole — long prefills therefore stall ongoing
// decodes, the problem Sarathi-Serve later fixed.
type Orca struct {
	// MaxSeqs bounds the concurrent batch (Orca's max batch size).
	MaxSeqs int
}

// NewOrca returns the Orca baseline.
func NewOrca(maxSeqs int) *Orca {
	if maxSeqs < 1 {
		panic(fmt.Sprintf("sched: orca MaxSeqs %d", maxSeqs))
	}
	return &Orca{MaxSeqs: maxSeqs}
}

// Name implements Scheduler.
func (o *Orca) Name() string { return "orca" }

// Schedule implements Scheduler: all available decodes, then whole-prompt
// admissions up to MaxSeqs.
func (o *Orca) Schedule(p *Pool, now time.Duration) *Batch {
	b := p.GetBatch()
	p.buildDecodeFiltered(b, o.MaxSeqs, nil)
	if slots := o.MaxSeqs - len(b.Decodes) - p.inFlightSeqsEstimate(); slots > 0 {
		// Whole prompts only; an effectively unlimited token budget — the
		// seq cap is the constraint, exactly Orca's design. Admission slots
		// go to the first eligible waiting requests: buildPrefillFiltered
		// walks the queue FIFO and consults allow only on eligible entries
		// (no in-flight chunk, prefill remaining), so a counting filter
		// admits exactly the first `slots` of them — a slot is consumed even
		// when the whole prompt then fails to fit, matching the eager
		// allowed-set this used to build.
		remaining := slots
		p.buildPrefillFiltered(b, 1<<30, now, func(*request.Request) bool {
			if remaining <= 0 {
				return false
			}
			remaining--
			return true
		}, true)
	}
	return b
}

// inFlightSeqsEstimate approximates sequences already running in other
// micro-batches (busy decodes plus requests with chunks in flight).
func (p *Pool) inFlightSeqsEstimate() int {
	n := 0
	for _, r := range p.decoding {
		if r.DecodeBusy() {
			n++
		}
	}
	for _, r := range p.prefillQ {
		if r.InFlightChunks() > 0 {
			n++
		}
	}
	return n
}

// BatchLevel is FasterTransformer-style batch-level scheduling: a cohort of
// requests is admitted together, runs to completion (prefill then decode),
// and only then is the next cohort admitted. Early-finishing slots idle and
// late arrivals wait out the whole cohort — the inefficiency Orca's
// iteration-level scheduling removed.
type BatchLevel struct {
	// MaxSeqs is the cohort size.
	MaxSeqs int

	// cohort holds the admitted requests that have not finished; each
	// carries stamp in its SchedStamp, which is what the batch builders
	// filter on.
	cohort []*request.Request
	stamp  uint64
}

// NewBatchLevel returns the FasterTransformer-style baseline.
func NewBatchLevel(maxSeqs int) *BatchLevel {
	if maxSeqs < 1 {
		panic(fmt.Sprintf("sched: batch-level MaxSeqs %d", maxSeqs))
	}
	return &BatchLevel{MaxSeqs: maxSeqs}
}

// Name implements Scheduler.
func (s *BatchLevel) Name() string { return "batch-level" }

// Schedule implements Scheduler.
func (s *BatchLevel) Schedule(p *Pool, now time.Duration) *Batch {
	// Drop finished cohort members; admit a fresh cohort only when empty.
	s.cohort = slices.DeleteFunc(s.cohort, (*request.Request).Finished)
	if len(s.cohort) == 0 {
		s.stamp = batchEpoch.Add(1)
		for _, r := range p.prefillQ {
			if len(s.cohort) >= s.MaxSeqs {
				break
			}
			r.SchedStamp = s.stamp
			s.cohort = append(s.cohort, r)
		}
	}
	inCohort := func(r *request.Request) bool { return r.SchedStamp == s.stamp }
	b := p.GetBatch()
	p.buildDecodeFiltered(b, s.MaxSeqs, inCohort)
	p.buildPrefillFiltered(b, 1<<30, now, inCohort, true)
	return b
}

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
// one workload (the SchedulingEvolution experiment). Like every policy they
// are budgets and filters over the pool's one prefill walk and one decode
// walk; what makes them pre-Sarathi is the walk's whole-prompt mode.

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
	p.buildDecode(b, o.MaxSeqs, nil)
	if slots := o.MaxSeqs - len(b.Decodes) - p.inFlightSeqsEstimate(); slots > 0 {
		// Whole prompts only; an effectively unlimited token budget — the
		// seq cap is the constraint, exactly Orca's design. Admission slots
		// go to the first eligible waiting requests: buildPrefill walks the
		// queue FIFO and consults allow only on eligible entries (no
		// in-flight chunk, prefill remaining), so a counting filter admits
		// exactly the first `slots` of them — a slot is consumed even when
		// the whole prompt then fails to fit.
		remaining := slots
		p.buildPrefill(b, 1<<30, now, func(*request.Request) bool {
			if remaining <= 0 {
				return false
			}
			remaining--
			return true
		}, true)
	}
	return b
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
	// carries stamp in its SchedStamp, which is what the walks' filter
	// compares.
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
	p.buildDecode(b, s.MaxSeqs, inCohort)
	p.buildPrefill(b, 1<<30, now, inCohort, true)
	return b
}

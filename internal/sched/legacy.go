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
		p.buildPrefill(b, p.prefillQ, 1<<30, now, func(*request.Request) bool {
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

	// cohort holds the admitted requests that have not left the pool; each
	// carries stamp in its SchedStamp.
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

// Schedule implements Scheduler. Neither walk filters on the cohort, by two
// invariants: every decoder is a member (a new cohort forms only once the
// old one has fully left the pool), and the members not yet decoding are a
// prefix of p.prefillQ (the cohort is the queue's head when it forms,
// arrivals append at the back, and only members hold KV, so only members
// are preempted back to the front).
func (s *BatchLevel) Schedule(p *Pool, now time.Duration) *Batch {
	s.cohort = slices.DeleteFunc(s.cohort, leftPool)
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
	b := p.GetBatch()
	p.buildDecode(b, s.MaxSeqs, nil)
	// After the decode walk: its preemptions re-queue members at the front.
	n := 0
	for n < len(p.prefillQ) && p.prefillQ[n].SchedStamp == s.stamp {
		n++
	}
	p.buildPrefill(b, p.prefillQ[:n], 1<<30, now, nil, true)
	return b
}

// leftPool reports whether a cohort member finished or was aborted.
func leftPool(r *request.Request) bool { return r.Finished() || r.Aborted() }

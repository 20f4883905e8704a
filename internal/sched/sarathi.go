package sched

import (
	"fmt"
	"time"
)

// Sarathi is the Sarathi-Serve scheduling policy (the paper's baseline,
// used by both vLLM and SGLang with a 2048-token budget): every iteration
// first batches ALL available decode tokens, then fills the remaining fixed
// token budget with chunked prefill tokens.
//
// The coupling of the two stages under one budget is exactly what the gLLM
// paper charges with token-count volatility (Figure 1): when no prefill
// tokens are waiting the batch collapses to the decode residue, and decode
// tokens pile into whichever micro-batch is scheduled first (Figure 8).
type Sarathi struct {
	// Budget is the fixed per-iteration token budget (prefill + decode).
	Budget int
}

// NewSarathi returns the baseline scheduler with the given token budget.
func NewSarathi(budget int) *Sarathi {
	if budget < 1 {
		panic(fmt.Sprintf("sched: sarathi budget %d", budget))
	}
	return &Sarathi{Budget: budget}
}

// Name implements Scheduler.
func (s *Sarathi) Name() string { return "sarathi" }

// Schedule implements Scheduler: decode-first, then chunked prefill within
// the leftover budget.
func (s *Sarathi) Schedule(p *Pool, now time.Duration) *Batch {
	b := p.GetBatch()
	p.buildDecode(b, s.Budget, nil)
	if rest := s.Budget - b.DecodeTokens(); rest > 0 {
		p.buildPrefill(b, p.prefillQ, rest, now, nil, false)
	}
	return b
}

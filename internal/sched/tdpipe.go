package sched

import (
	"fmt"
	"time"
)

// TDPipe models TD-Pipe's temporally-disaggregated pipeline scheduling
// (paper §2.4/§5): instead of mixing prefill and decode tokens in one
// micro-batch, the engine alternates PHASES — a prefill phase that only
// admits prompt chunks, then a decode phase that only schedules decode
// tokens. Homogeneous batches eliminate the prefill-vs-decode compute-time
// mismatch (the second bubble type of Sarathi's taxonomy), which maximizes
// offline throughput; the cost is latency, because requests wait out the
// opposite phase — which is why the paper positions gLLM for online
// serving and TD-Pipe for offline.
type TDPipe struct {
	// Budget is the per-batch prefill token budget during prefill phases.
	Budget int
	// SwitchKVFree: the prefill phase ends when the KV free rate drops
	// below this (cache charged with enough work) or nothing waits.
	SwitchKVFree float64
	// MinDecode: the decode phase ends when fewer than this many sequences
	// remain decoding and prompts are waiting.
	MinDecode int

	inDecodePhase bool
	switches      int
}

// NewTDPipe returns the temporal-disaggregation scheduler with TD-Pipe-like
// defaults (fill the cache to 30% free, drain to one batch's worth).
func NewTDPipe(budget int, depth int) *TDPipe {
	if budget < 1 || depth < 1 {
		panic(fmt.Sprintf("sched: tdpipe budget=%d depth=%d", budget, depth))
	}
	return &TDPipe{Budget: budget, SwitchKVFree: 0.3, MinDecode: depth}
}

// Name implements Scheduler.
func (t *TDPipe) Name() string { return "td-pipe" }

// Schedule implements Scheduler.
func (t *TDPipe) Schedule(p *Pool, now time.Duration) *Batch {
	wp := p.WaitingPrefillTokens()
	rd := p.RunningDecode()
	if t.inDecodePhase {
		// Leave the decode phase once it has drained (or nothing decodes)
		// and prompts are waiting.
		if wp > 0 && rd < t.MinDecode {
			t.inDecodePhase = false
			t.switches++
		}
	} else {
		// Leave the prefill phase once the cache is charged or no prompt
		// remains (decode work pending).
		if (wp == 0 || p.KV.FreeRate() < t.SwitchKVFree) && rd > 0 {
			t.inDecodePhase = true
			t.switches++
		}
	}

	// Homogeneous decode batches still pipeline: spread the population
	// evenly over the micro-batch slots (otherwise one giant batch leaves
	// the other stages idle).
	decodeShare := (rd + t.MinDecode - 1) / t.MinDecode
	b := p.GetBatch()
	if t.inDecodePhase {
		p.buildDecode(b, decodeShare, nil)
		if b.Empty() && rd == 0 {
			// Phase boundary race: nothing decodable; fall through to
			// prefill so the pipeline never idles with work waiting.
			p.buildPrefill(b, p.prefillQ, t.Budget, now, nil, false)
			return b
		}
	} else {
		p.buildPrefill(b, p.prefillQ, t.Budget, now, nil, false)
		if b.Empty() && rd > 0 {
			// Nothing to prefill this instant (e.g. chunks in flight): avoid
			// a bubble rather than idle — schedule decodes, as TD-Pipe's
			// unit switching does at phase boundaries.
			p.buildDecode(b, decodeShare, nil)
		}
	}
	if rd > 0 && p.stalled(b) {
		// The decode walk had to preempt every decoder and nothing is in
		// flight: what they freed goes to prefill now, or nothing ever
		// schedules again.
		p.buildPrefill(b, p.prefillQ, t.Budget, now, nil, false)
	}
	return b
}

package sched

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"gllm/internal/core"
	"gllm/internal/kvcache"
	"gllm/internal/request"
)

// policies are every ByName policy: every caller of the pool's two walks.
var policies = []string{
	"gllm", "gllm-no-wt", "gllm-no-ut",
	"sarathi", "gllm-ck", "vllm-ve", "td-pipe", "orca", "batch-level",
}

// trial is one scheduling run in the shape FuzzThrottleSchedule decodes: a
// pipeline depth, a KV cache of kvBlocks blocks of 8 tokens, the throttle's
// MaxP and IterT, and requests arriving one every other step.
type trial struct {
	depth, kvBlocks int
	maxP, iterT     int
	specs           [][2]int // prompt and output lengths
}

// trialFromBytes decodes data exactly as FuzzThrottleSchedule does; ok is
// false for inputs the fuzzer skips.
func trialFromBytes(data []byte) (tr trial, ok bool) {
	if len(data) < 6 {
		return tr, false
	}
	tr = trial{depth: 1 + int(data[0])%4, kvBlocks: 8 + int(data[1])%48, maxP: 16 + int(data[2]), iterT: 1 + int(data[3])%8}
	for i := 4; i+1 < len(data) && len(tr.specs) < 64; i += 2 {
		tr.addSpec(1+int(data[i])%96, 1+int(data[i+1])%24)
	}
	return tr, len(tr.specs) > 0
}

// randomTrial draws a trial of 4 to 39 requests from seed.
func randomTrial(seed uint64) trial {
	rng := rand.New(rand.NewPCG(seed, 0))
	tr := trial{depth: 1 + rng.IntN(4), kvBlocks: 8 + rng.IntN(48), maxP: 16 + rng.IntN(256), iterT: 1 + rng.IntN(8)}
	for range 4 + rng.IntN(36) {
		tr.addSpec(1+rng.IntN(96), 1+rng.IntN(24))
	}
	return tr
}

// addSpec appends a request, its prompt capped so it fits the KV beside the
// pool's one-block admission watermark: whole-prompt policies admit a prompt
// only in one piece.
func (tr *trial) addSpec(prompt, out int) {
	if maxReq := (tr.kvBlocks - 1) * 8; prompt+out > maxReq {
		prompt = maxReq - out
	}
	tr.specs = append(tr.specs, [2]int{prompt, out})
}

// policy builds the named scheduler with the trial's knobs.
func (tr trial) policy(t *testing.T, name string) Scheduler {
	t.Helper()
	params := core.DefaultParams()
	params.MaxP = tr.maxP
	params.MinP = min(params.MinP, params.MaxP)
	params.IterT = tr.iterT
	s, err := ByName(name, params.MaxP, params)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// run drives s over the trial with a pipeline-deep FIFO of in-flight
// batches, FuzzThrottleSchedule's injection discipline. With aborts set,
// each step first aborts a random quiescent resident request with
// probability 1/10, as a cancelled, timed-out or disconnected client would.
// seen, when set, sees every batch Schedule returns. The error names a
// stall — an empty batch with nothing in flight while requests are
// resident, which an engine never schedules past — or a run that does not
// drain.
func (tr trial) run(s Scheduler, aborts *rand.Rand, seen func(p *Pool, b *Batch)) (*Pool, error) {
	p := NewPool(kvcache.New(int64(tr.kvBlocks*8), 8), tr.depth)
	var inflight []*Batch
	now, next := time.Duration(0), 0
	for step := range 20000 {
		if next < len(tr.specs) && step%2 == 0 {
			p.Add(request.New(int64(next), 0, tr.specs[next][0], tr.specs[next][1]))
			next++
		}
		if aborts != nil && aborts.IntN(10) == 0 {
			abortQuiescent(p, aborts)
		}
		b := s.Schedule(p, now)
		if seen != nil {
			seen(p, b)
		}
		if b.Empty() && len(inflight) == 0 && !p.Idle() {
			return p, fmt.Errorf("step %d: empty batch with nothing in flight and %d+%d requests resident",
				step, p.PrefillQueueLen(), p.RunningDecode())
		}
		if !b.Empty() {
			inflight = append(inflight, b)
		}
		if len(inflight) > 0 && (b.Empty() || len(inflight) >= tr.depth) {
			now += time.Millisecond
			p.Complete(inflight[0], now)
			inflight = inflight[1:]
		}
		if next == len(tr.specs) && p.Idle() && len(inflight) == 0 {
			return p, nil
		}
	}
	return p, fmt.Errorf("not drained: %d+%d requests resident", p.PrefillQueueLen(), p.RunningDecode())
}

// abortQuiescent aborts a random resident request with no chunk or decode
// step in flight, the only kind Pool.Abort accepts.
func abortQuiescent(p *Pool, rng *rand.Rand) {
	var quiet []*request.Request
	for _, r := range p.prefillQ {
		if r.InFlightChunks() == 0 {
			quiet = append(quiet, r)
		}
	}
	for _, r := range p.decoding {
		if !r.DecodeBusy() {
			quiet = append(quiet, r)
		}
	}
	if len(quiet) > 0 {
		p.Abort(quiet[rng.IntN(len(quiet))])
	}
}

// TestAbortKeepsEveryPolicyLive: aborting requests at random, as the live
// runtime does on every client cancel, must never leave a policy holding
// resident requests it will not schedule. Batch-level once kept an aborted
// cohort member in its cohort and never admitted another.
func TestAbortKeepsEveryPolicyLive(t *testing.T) {
	const seeds = 300
	for _, name := range policies {
		stuck := 0
		var first error
		for seed := range uint64(seeds) {
			tr := randomTrial(seed)
			if _, err := tr.run(tr.policy(t, name), rand.New(rand.NewPCG(seed, 1)), nil); err != nil {
				if stuck++; first == nil {
					first = fmt.Errorf("seed %d: %w", seed, err)
				}
			}
		}
		if stuck > 0 {
			t.Errorf("%s: stuck in %d of %d seeds; first: %v", name, stuck, seeds, first)
		}
	}
}

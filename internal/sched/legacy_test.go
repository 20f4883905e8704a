package sched

import (
	"math/rand/v2"
	"testing"
	"time"

	"gllm/internal/request"
)

func TestOrcaWholePromptsOnly(t *testing.T) {
	p := newPool(t, 1<<16, 4)
	s := NewOrca(8)
	r := request.New(1, 0, 5000, 5)
	p.Add(r)
	b := s.Schedule(p, 0)
	// No chunking: the whole 5000-token prompt in one batch.
	if len(b.Chunks) != 1 || b.Chunks[0].Tokens != 5000 {
		t.Fatalf("chunks = %+v", b.Chunks)
	}
	p.Complete(b, time.Second)
	if r.State() != request.StateDecoding {
		t.Fatalf("state = %s", r.State())
	}
}

func TestOrcaRespectsMaxSeqs(t *testing.T) {
	p := newPool(t, 1<<16, 4)
	s := NewOrca(3)
	for i := 0; i < 6; i++ {
		p.Add(request.New(int64(i), 0, 100, 50))
	}
	b := s.Schedule(p, 0)
	if len(b.Chunks) != 3 {
		t.Fatalf("admitted %d, want 3", len(b.Chunks))
	}
	p.Complete(b, time.Second)
	// 3 decoding; slots full, no admissions next round.
	b2 := s.Schedule(p, time.Second)
	if b2.DecodeTokens() != 3 || b2.PrefillTokens() != 0 {
		t.Fatalf("batch2 = %d decode / %d prefill", b2.DecodeTokens(), b2.PrefillTokens())
	}
}

func TestOrcaDecodeStall(t *testing.T) {
	// Orca's defect (the paper's §2.2): a huge admitted prompt rides in the
	// same iteration as ongoing decodes, stalling them for the whole
	// prefill. Verify the mixed batch shape exists (one iteration carrying
	// both a full prompt and decode tokens).
	p := newPool(t, 1<<16, 1)
	s := NewOrca(8)
	p.Add(request.New(1, 0, 50, 100))
	p.Complete(s.Schedule(p, 0), time.Second)
	p.Add(request.New(2, 0, 4000, 10))
	b := s.Schedule(p, time.Second)
	if b.DecodeTokens() != 1 || b.PrefillTokens() != 4000 {
		t.Fatalf("batch = %d decode / %d prefill", b.DecodeTokens(), b.PrefillTokens())
	}
}

func TestBatchLevelCohortSemantics(t *testing.T) {
	p := newPool(t, 1<<16, 1)
	s := NewBatchLevel(2)
	r1 := request.New(1, 0, 50, 2)
	r2 := request.New(2, 0, 50, 10)
	r3 := request.New(3, 0, 50, 2)
	p.Add(r1)
	p.Add(r2)
	p.Add(r3)

	// Cohort = {r1, r2}. r3 must wait even after r1 finishes.
	now := time.Duration(0)
	for iter := 0; !r2.Finished(); iter++ {
		if iter > 100 {
			t.Fatal("cohort did not finish")
		}
		b := s.Schedule(p, now)
		if b.Empty() {
			t.Fatalf("stuck at iter %d", iter)
		}
		for _, c := range b.Chunks {
			if c.Req == r3 {
				t.Fatal("r3 admitted before cohort finished")
			}
		}
		now += time.Millisecond
		p.Complete(b, now)
	}
	if !r1.Finished() {
		t.Fatal("r1 should have finished with the cohort")
	}
	if r3.State() != request.StateWaiting {
		t.Fatalf("r3 state = %s", r3.State())
	}
	// Next schedule admits the follow-up cohort.
	b := s.Schedule(p, now)
	if len(b.Chunks) != 1 || b.Chunks[0].Req != r3 {
		t.Fatalf("next cohort = %+v", b.Chunks)
	}
}

// kvPressureTrial is a batch-level cohort whose decodes outgrow the KV cache,
// so decode reservations preempt members back to the queue's front.
var kvPressureTrial = trial{depth: 2, kvBlocks: 10, maxP: 64, iterT: 1,
	specs: [][2]int{{9, 24}, {9, 24}, {9, 24}, {9, 24}, {9, 24}, {9, 24}, {9, 24}, {9, 24}}}

// TestBatchLevelCohortInvariants pins the two invariants BatchLevel.Schedule
// walks by, after every batch, under KV pressure and random aborts: every
// decoder is a cohort member, and the members still waiting or prefilling
// are a prefix of the prefill queue.
func TestBatchLevelCohortInvariants(t *testing.T) {
	trials := []trial{kvPressureTrial}
	for seed := range uint64(100) {
		trials = append(trials, randomTrial(seed))
	}
	for i, tr := range trials {
		s := NewBatchLevel(8)
		check := func(p *Pool, _ *Batch) {
			for _, r := range p.decoding {
				if r.SchedStamp != s.stamp {
					t.Fatalf("trial %d: decoder %v is not a cohort member", i, r)
				}
			}
			head := 0
			for head < len(p.prefillQ) && p.prefillQ[head].SchedStamp == s.stamp {
				head++
			}
			for _, r := range p.prefillQ[head:] {
				if r.SchedStamp == s.stamp {
					t.Fatalf("trial %d: member %v queued behind non-member %v", i, r, p.prefillQ[head])
				}
			}
		}
		p, err := tr.run(s, nil, check)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if i == 0 && p.Preemptions() == 0 {
			t.Fatal("the KV-pressure trial preempted nothing")
		}
		s = NewBatchLevel(8)
		if _, err := tr.run(s, rand.New(rand.NewPCG(uint64(i), 1)), check); err != nil {
			t.Fatalf("trial %d with aborts: %v", i, err)
		}
	}
}

func TestLegacyConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewOrca(0) },
		func() { NewBatchLevel(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestLegacySchedulersDrainWorkload(t *testing.T) {
	for _, mk := range []func() Scheduler{
		func() Scheduler { return NewOrca(16) },
		func() Scheduler { return NewBatchLevel(8) },
	} {
		s := mk()
		p := newPool(t, 1<<16, 4)
		for i := 0; i < 30; i++ {
			p.Add(request.New(int64(i), 0, 100+i*17, 4+i%9))
		}
		finished := 0
		now := time.Duration(0)
		for iter := 0; !p.Idle(); iter++ {
			if iter > 10000 {
				t.Fatalf("%s: did not drain", s.Name())
			}
			b := s.Schedule(p, now)
			now += time.Millisecond
			if b.Empty() {
				// Legal for batch-level while cohort members are busy in
				// other micro-batches; here nothing is in flight, so empty
				// means stuck.
				t.Fatalf("%s: empty batch at iter %d", s.Name(), iter)
			}
			finished += len(p.Complete(b, now))
			if err := p.KV.Verify(); err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
		}
		if finished != 30 {
			t.Fatalf("%s: finished %d/30", s.Name(), finished)
		}
	}
}

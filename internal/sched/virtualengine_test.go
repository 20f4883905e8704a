package sched

import (
	"testing"
	"time"

	"gllm/internal/request"
)

func TestVirtualEnginesPartitionRequests(t *testing.T) {
	p := newPool(t, 1<<16, 4)
	s := NewVirtualEngines(2048, 4)
	var reqs []*request.Request
	for i := 0; i < 8; i++ {
		r := request.New(int64(i), 0, 64, 1000)
		reqs = append(reqs, r)
		p.Add(r)
	}
	// Prefill everyone (several slot rotations).
	for iter := 0; p.PrefillQueueLen() > 0; iter++ {
		if iter > 100 {
			t.Fatal("prefill stuck")
		}
		b := s.Schedule(p, 0)
		if b.Empty() {
			t.Fatal("empty batch with waiting prefill")
		}
		p.Complete(b, time.Second)
	}
	// Each engine owns 2 of the 8 decodes: a full rotation of 4 batches
	// decodes everyone exactly once.
	seen := map[int64]int{}
	for slot := 0; slot < 4; slot++ {
		b := s.Schedule(p, time.Second)
		if b.DecodeTokens() != 2 {
			t.Fatalf("slot %d decodes = %d, want 2 (round-robin partition)", slot, b.DecodeTokens())
		}
		for _, r := range b.Decodes {
			seen[r.ID]++
		}
		p.Complete(b, 2*time.Second)
	}
	if len(seen) != 8 {
		t.Fatalf("decoded %d distinct requests, want 8", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("request %d decoded %d times in one rotation", id, n)
		}
	}
}

func TestVirtualEnginesIdleEngineSkipped(t *testing.T) {
	p := newPool(t, 1<<16, 4)
	s := NewVirtualEngines(2048, 4)
	// Only one request: it lands on engine 0, and every slot rotation must
	// still find work via the skip-forward search.
	r := request.New(1, 0, 64, 1000)
	p.Add(r)
	b := s.Schedule(p, 0)
	if b.PrefillTokens() != 64 {
		t.Fatalf("prefill = %d", b.PrefillTokens())
	}
	p.Complete(b, time.Second)
	for i := 0; i < 4; i++ {
		b := s.Schedule(p, time.Second)
		if b.DecodeTokens() != 1 {
			t.Fatalf("rotation %d: decode = %d", i, b.DecodeTokens())
		}
		p.Complete(b, 2*time.Second)
	}
}

func TestVirtualEnginesDrain(t *testing.T) {
	p := newPool(t, 1<<16, 4)
	s := NewVirtualEngines(2048, 4)
	for i := 0; i < 120; i++ {
		p.Add(request.New(int64(i), 0, 40+i%60, 2+i%5))
	}
	finished := 0
	now := time.Duration(0)
	for iter := 0; !p.Idle(); iter++ {
		if iter > 10000 {
			t.Fatal("did not drain")
		}
		b := s.Schedule(p, now)
		if b.Empty() {
			t.Fatalf("stuck at iter %d", iter)
		}
		now += time.Millisecond
		finished += len(p.Complete(b, now))
	}
	if finished != 120 {
		t.Fatalf("finished %d/120", finished)
	}
}

func TestVirtualEnginesPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewVirtualEngines(0, 4) },
		func() { NewVirtualEngines(2048, 0) },
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

package sched

import (
	"testing"
	"time"

	"gllm/internal/core"
	"gllm/internal/kvcache"
	"gllm/internal/request"
)

func abortPool(t *testing.T) *Pool {
	t.Helper()
	return NewPool(kvcache.New(1024, 16), 2)
}

func TestAbortWaitingRequest(t *testing.T) {
	p := abortPool(t)
	r := request.New(1, 0, 100, 10)
	p.Add(r)
	p.Abort(r)
	if !r.Aborted() {
		t.Fatalf("state = %s", r.State())
	}
	if !p.Idle() {
		t.Fatal("pool not empty after abort")
	}
	if p.KV.FreeRate() != 1 {
		t.Fatalf("KV free rate = %v", p.KV.FreeRate())
	}
}

func TestAbortMidPrefillFreesKV(t *testing.T) {
	p := abortPool(t)
	s := NewThrottle(core.DefaultParams(), core.VariantFull)
	r := request.New(1, 0, 200, 10)
	p.Add(r)
	// Schedule and complete a partial chunk so the request is mid-prefill
	// with KV resident and nothing in flight.
	b := &Batch{}
	p.buildPrefill(b, p.prefillQ, 96, 0, nil, false)
	if len(b.Chunks) != 1 || b.Chunks[0].Tokens != 96 {
		t.Fatalf("chunks = %+v", b.Chunks)
	}
	if fin := p.Complete(b, time.Millisecond); len(fin) != 0 {
		t.Fatalf("finished early: %v", fin)
	}
	if r.State() != request.StatePrefilling || p.KV.FreeRate() == 1 {
		t.Fatalf("setup wrong: state %s, free %v", r.State(), p.KV.FreeRate())
	}
	p.Abort(r)
	if !r.Aborted() || !p.Idle() || p.KV.FreeRate() != 1 {
		t.Fatalf("abort left state %s idle=%v free=%v", r.State(), p.Idle(), p.KV.FreeRate())
	}
	// The pool keeps scheduling normally afterwards.
	r2 := request.New(2, 0, 50, 2)
	p.Add(r2)
	if nb := s.Schedule(p, time.Millisecond); nb.Empty() {
		t.Fatal("pool cannot schedule after abort")
	}
}

func TestAbortDecodingFreesKV(t *testing.T) {
	p := abortPool(t)
	r := request.New(1, 0, 64, 50)
	p.Add(r)
	b := &Batch{}
	p.buildPrefill(b, p.prefillQ, 64, 0, nil, false)
	p.Complete(b, time.Millisecond)
	if r.State() != request.StateDecoding {
		t.Fatalf("state = %s", r.State())
	}
	p.Abort(r)
	if !r.Aborted() || p.RunningDecode() != 0 || p.KV.FreeRate() != 1 {
		t.Fatalf("abort failed: %v free=%v", r, p.KV.FreeRate())
	}
}

func TestAbortPanicsOnInFlightWork(t *testing.T) {
	p := abortPool(t)
	r := request.New(1, 0, 64, 50)
	p.Add(r)
	b := &Batch{}
	p.buildPrefill(b, p.prefillQ, 64, 0, nil, false) // chunk in flight, not completed
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("abort with in-flight chunk did not panic")
			}
		}()
		p.Abort(r)
	}()

	p2 := abortPool(t)
	d := request.New(2, 0, 32, 50)
	p2.Add(d)
	b2 := &Batch{}
	p2.buildPrefill(b2, p2.prefillQ, 32, 0, nil, false)
	p2.Complete(b2, time.Millisecond)
	b3 := &Batch{}
	p2.buildDecode(b3, 1, nil) // decode step in flight
	if len(b3.Decodes) != 1 {
		t.Fatalf("decodes = %d", len(b3.Decodes))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("abort of busy decoder did not panic")
			}
		}()
		p2.Abort(d)
	}()
}

func TestAbortPanicsOnNonResident(t *testing.T) {
	p := abortPool(t)
	r := request.New(1, 0, 10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("abort of non-resident request did not panic")
		}
	}()
	p.Abort(r)
}

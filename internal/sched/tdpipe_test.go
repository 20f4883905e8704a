package sched

import (
	"testing"
	"time"

	"gllm/internal/request"
)

func TestTDPipePhaseAlternation(t *testing.T) {
	p := newPool(t, 2048, 2) // small cache so the prefill phase ends quickly
	s := NewTDPipe(2048, 2)

	for i := 0; i < 12; i++ {
		p.Add(request.New(int64(i), 0, 300, 40))
	}
	sawPrefillOnly := false
	sawDecodeOnly := false
	now := time.Duration(0)
	for iter := 0; !p.Idle(); iter++ {
		if iter > 5000 {
			t.Fatal("did not drain")
		}
		b := s.Schedule(p, now)
		if b.Empty() {
			t.Fatalf("empty batch at iter %d", iter)
		}
		if b.PrefillTokens() > 0 && b.DecodeTokens() == 0 {
			sawPrefillOnly = true
		}
		if b.DecodeTokens() > 0 && b.PrefillTokens() == 0 {
			sawDecodeOnly = true
		}
		// Temporal disaggregation: batches are homogeneous.
		if b.PrefillTokens() > 0 && b.DecodeTokens() > 0 {
			t.Fatalf("mixed batch under TD-Pipe: %d prefill + %d decode",
				b.PrefillTokens(), b.DecodeTokens())
		}
		now += time.Millisecond
		p.Complete(b, now)
	}
	if !sawPrefillOnly || !sawDecodeOnly {
		t.Fatalf("phases missing: prefill-only %v decode-only %v", sawPrefillOnly, sawDecodeOnly)
	}
	if s.switches < 2 {
		t.Fatalf("phase switches = %d", s.switches)
	}
}

func TestTDPipePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewTDPipe(0, 4) },
		func() { NewTDPipe(2048, 0) },
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

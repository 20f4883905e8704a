package request

import (
	"testing"
	"testing/quick"
	"time"
)

func TestLifecycleHappyPath(t *testing.T) {
	r := New(1, time.Second, 100, 3)
	if r.State() != StateWaiting {
		t.Fatalf("initial state = %s", r.State())
	}
	if r.RemainingPrefill() != 100 {
		t.Fatalf("remaining prefill = %d", r.RemainingPrefill())
	}

	// Chunked prefill: 60 + 40 tokens.
	r.ScheduleChunk(60, 2*time.Second)
	if r.State() != StatePrefilling || r.InFlightPrefill() != 60 {
		t.Fatalf("after schedule: %s inflight=%d", r.State(), r.InFlightPrefill())
	}
	if r.RemainingPrefill() != 40 {
		t.Fatalf("remaining = %d", r.RemainingPrefill())
	}
	r.CompleteChunk(3 * time.Second)
	if r.PrefillDone() != 60 || r.State() != StatePrefilling {
		t.Fatalf("after chunk 1: done=%d state=%s", r.PrefillDone(), r.State())
	}
	if r.HasFirstToken() {
		t.Fatal("first token before prefill completion")
	}

	r.ScheduleChunk(40, 3*time.Second)
	r.CompleteChunk(4 * time.Second)
	if r.State() != StateDecoding {
		t.Fatalf("after prefill: %s", r.State())
	}
	if !r.HasFirstToken() || r.Generated() != 1 {
		t.Fatal("prefill completion must emit first token")
	}
	if r.TTFT() != 3*time.Second {
		t.Fatalf("TTFT = %v", r.TTFT())
	}

	// Two decode steps to reach OutputLen = 3.
	r.ScheduleDecode()
	if done := r.CompleteDecode(5 * time.Second); done {
		t.Fatal("finished too early")
	}
	r.ScheduleDecode()
	if done := r.CompleteDecode(6 * time.Second); !done {
		t.Fatal("did not finish")
	}
	if r.State() != StateFinished || !r.Finished() {
		t.Fatalf("final state = %s", r.State())
	}
	if r.E2E() != 5*time.Second {
		t.Fatalf("E2E = %v", r.E2E())
	}
	// TPOT = (finish - firstToken) / (outputLen-1) = 2s/2 = 1s.
	if r.TPOT() != time.Second {
		t.Fatalf("TPOT = %v", r.TPOT())
	}
	if r.TotalTokens() != 103 {
		t.Fatalf("total tokens = %d", r.TotalTokens())
	}
}

func TestSingleOutputTokenFinishesAtPrefill(t *testing.T) {
	r := New(1, 0, 10, 1)
	r.ScheduleChunk(10, time.Second)
	r.CompleteChunk(2 * time.Second)
	if !r.Finished() {
		t.Fatalf("state = %s, want finished", r.State())
	}
	if r.TPOT() != 0 {
		t.Fatalf("TPOT of 1-token output = %v", r.TPOT())
	}
	if r.TTFT() != 2*time.Second {
		t.Fatalf("TTFT = %v", r.TTFT())
	}
}

func TestPreemptionRequiresFullRecompute(t *testing.T) {
	r := New(1, 0, 50, 10)
	r.ScheduleChunk(50, time.Second)
	r.CompleteChunk(2 * time.Second)
	// Generate 4 more tokens (5 total).
	for i := 0; i < 4; i++ {
		r.ScheduleDecode()
		r.CompleteDecode(time.Duration(3+i) * time.Second)
	}
	firstTTFT := r.TTFT()

	r.Preempt()
	if r.State() != StateWaiting {
		t.Fatalf("state after preempt = %s", r.State())
	}
	if r.Preemptions != 1 {
		t.Fatalf("preemptions = %d", r.Preemptions)
	}
	// Full context (50 prompt + 5 generated) must be recomputed.
	if r.PrefillTarget() != 55 || r.RemainingPrefill() != 55 {
		t.Fatalf("prefill target = %d remaining = %d", r.PrefillTarget(), r.RemainingPrefill())
	}
	if r.Generated() != 5 {
		t.Fatal("generated tokens lost on preemption")
	}

	// Re-prefill and resume decoding; no duplicate first token.
	r.ScheduleChunk(55, 10*time.Second)
	r.CompleteChunk(11 * time.Second)
	if r.State() != StateDecoding {
		t.Fatalf("state after recompute = %s", r.State())
	}
	if r.Generated() != 5 {
		t.Fatalf("generated after recompute = %d", r.Generated())
	}
	if r.TTFT() != firstTTFT {
		t.Fatal("TTFT changed by preemption")
	}
	for r.Generated() < r.OutputLen {
		r.ScheduleDecode()
		r.CompleteDecode(12 * time.Second)
	}
	if !r.Finished() {
		t.Fatal("did not finish after recompute")
	}
}

func TestContextLenAccounting(t *testing.T) {
	r := New(1, 0, 30, 5)
	r.ScheduleChunk(20, 0)
	r.CompleteChunk(time.Second)
	r.ScheduleChunk(10, time.Second)
	r.CompleteChunk(2 * time.Second)
	// 30 prefill + 1 generated.
	if r.ContextLen() != 31 {
		t.Fatalf("context = %d", r.ContextLen())
	}
}

func TestContextLenAfterRepeatedPreemption(t *testing.T) {
	r := New(1, 0, 50, 20)
	r.ScheduleChunk(50, 0)
	r.CompleteChunk(time.Second)
	for r.Generated() < 5 {
		r.ScheduleDecode()
		r.CompleteDecode(2 * time.Second)
	}
	if r.ContextLen() != 55 {
		t.Fatalf("ctx before preempt = %d", r.ContextLen())
	}
	r.Preempt()
	if r.PrefillTarget() != 55 {
		t.Fatalf("target after preempt 1 = %d", r.PrefillTarget())
	}
	r.ScheduleChunk(55, 3*time.Second)
	r.CompleteChunk(4 * time.Second)
	// ContextLen must not double-count the 5 recomputed tokens.
	if r.ContextLen() != 55 {
		t.Fatalf("ctx after recompute = %d, want 55", r.ContextLen())
	}
	for r.Generated() < 8 {
		r.ScheduleDecode()
		r.CompleteDecode(5 * time.Second)
	}
	if r.ContextLen() != 58 {
		t.Fatalf("ctx = %d, want 58", r.ContextLen())
	}
	r.Preempt()
	if r.PrefillTarget() != 58 {
		t.Fatalf("target after preempt 2 = %d", r.PrefillTarget())
	}
	if r.Preemptions != 2 {
		t.Fatalf("preemptions = %d", r.Preemptions)
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(1, 0, 0, 1) },
		func() { New(1, 0, 5, 0) },
		func() { New(1, 0, -5, 3) },
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

func TestStateMachinePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"chunk too big", func() {
			r := New(1, 0, 10, 2)
			r.ScheduleChunk(11, 0)
		}},
		{"chunks beyond remaining", func() {
			r := New(1, 0, 10, 2)
			r.ScheduleChunk(5, 0)
			r.ScheduleChunk(6, 0) // only 5 remain
		}},
		{"decode before prefill", func() {
			r := New(1, 0, 10, 2)
			r.ScheduleDecode()
		}},
		{"complete without schedule", func() {
			r := New(1, 0, 10, 2)
			r.CompleteChunk(0)
		}},
		{"overlapping decode", func() {
			r := New(1, 0, 10, 3)
			r.ScheduleChunk(10, 0)
			r.CompleteChunk(0)
			r.ScheduleDecode()
			r.ScheduleDecode()
		}},
		{"preempt while busy", func() {
			r := New(1, 0, 10, 3)
			r.ScheduleChunk(10, 0)
			r.CompleteChunk(0)
			r.ScheduleDecode()
			r.Preempt()
		}},
		{"preempt waiting", func() {
			r := New(1, 0, 10, 3)
			r.Preempt()
		}},
		{"TTFT early", func() {
			r := New(1, 0, 10, 3)
			_ = r.TTFT()
		}},
		{"E2E early", func() {
			r := New(1, 0, 10, 3)
			_ = r.E2E()
		}},
		{"chunk on finished", func() {
			r := New(1, 0, 10, 1)
			r.ScheduleChunk(10, 0)
			r.CompleteChunk(0)
			r.ScheduleChunk(1, 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{
		StateWaiting:    "waiting",
		StatePrefilling: "prefilling",
		StateDecoding:   "decoding",
		StateFinished:   "finished",
		State(42):       "state(42)",
	}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestFirstScheduleRecordedOnce(t *testing.T) {
	r := New(1, 0, 20, 5)
	r.ScheduleChunk(10, 3*time.Second)
	r.CompleteChunk(4 * time.Second)
	r.ScheduleChunk(10, 5*time.Second)
	r.CompleteChunk(6 * time.Second)
	if r.FirstSchedule != 3*time.Second {
		t.Fatalf("FirstSchedule = %v", r.FirstSchedule)
	}
}

func TestQuickChunkedPrefillAlwaysCompletes(t *testing.T) {
	f := func(promptRaw, chunkRaw uint8, outRaw uint8) bool {
		prompt := int(promptRaw)%500 + 1
		chunk := int(chunkRaw)%64 + 1
		out := int(outRaw)%20 + 1
		r := New(1, 0, prompt, out)
		now := time.Duration(0)
		for r.State() == StateWaiting || r.State() == StatePrefilling {
			c := chunk
			if rem := r.RemainingPrefill(); c > rem {
				c = rem
			}
			r.ScheduleChunk(c, now)
			now += time.Millisecond
			r.CompleteChunk(now)
		}
		if r.PrefillDone() != prompt {
			return false
		}
		for !r.Finished() {
			r.ScheduleDecode()
			now += time.Millisecond
			r.CompleteDecode(now)
		}
		return r.Generated() == out && r.TotalTokens() == prompt+out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedChunksFIFO(t *testing.T) {
	// Chunked pipeline parallelism: multiple chunks in flight, completing
	// in FIFO order; the request only transitions to decoding once the last
	// chunk lands.
	r := New(1, 0, 300, 5)
	r.ScheduleChunk(100, time.Second)
	r.ScheduleChunk(100, time.Second)
	r.ScheduleChunk(100, time.Second)
	if r.InFlightChunks() != 3 || r.InFlightPrefill() != 300 {
		t.Fatalf("in flight = %d chunks / %d tokens", r.InFlightChunks(), r.InFlightPrefill())
	}
	if r.RemainingPrefill() != 0 {
		t.Fatalf("remaining = %d", r.RemainingPrefill())
	}
	r.CompleteChunk(2 * time.Second)
	if r.PrefillDone() != 100 || r.State() != StatePrefilling {
		t.Fatalf("after chunk1: done=%d state=%s", r.PrefillDone(), r.State())
	}
	r.CompleteChunk(3 * time.Second)
	if r.State() != StatePrefilling {
		t.Fatalf("after chunk2: %s", r.State())
	}
	r.CompleteChunk(4 * time.Second)
	if r.State() != StateDecoding || !r.HasFirstToken() {
		t.Fatalf("after chunk3: %s firstToken=%v", r.State(), r.HasFirstToken())
	}
	if r.TTFT() != 4*time.Second {
		t.Fatalf("TTFT = %v", r.TTFT())
	}
}

func TestPipelinedChunksReachTargetEarlyStillWaitForFIFO(t *testing.T) {
	// Even if prefillDone reaches the target while later chunks are still
	// in flight (cannot happen with correct scheduling, but the FIFO commit
	// guards it), decode must not start before all chunks complete.
	r := New(1, 0, 200, 5)
	r.ScheduleChunk(150, 0)
	r.ScheduleChunk(50, 0)
	r.CompleteChunk(time.Second)
	if r.State() != StatePrefilling {
		t.Fatalf("state = %s with a chunk still in flight", r.State())
	}
	r.CompleteChunk(2 * time.Second)
	if r.State() != StateDecoding {
		t.Fatalf("state = %s", r.State())
	}
}

func TestAccessorsAndString(t *testing.T) {
	r := New(7, 0, 20, 5)
	if r.DecodeBusy() {
		t.Fatal("fresh request decode-busy")
	}
	if s := r.String(); s == "" {
		t.Fatal("empty String()")
	}
	r.ScheduleChunk(20, 0)
	r.CompleteChunk(time.Second)
	r.ScheduleDecode()
	if !r.DecodeBusy() {
		t.Fatal("scheduled decode not busy")
	}
	r.CompleteDecode(2 * time.Second)
}

func TestSkipPrefillSemantics(t *testing.T) {
	r := New(1, 0, 100, 5)
	r.SkipPrefill(60)
	if r.PrefillDone() != 60 || r.RemainingPrefill() != 40 {
		t.Fatalf("after skip: done=%d remaining=%d", r.PrefillDone(), r.RemainingPrefill())
	}
	// State stays Waiting until a chunk is actually scheduled.
	if r.State() != StateWaiting {
		t.Fatalf("state = %s", r.State())
	}
	r.ScheduleChunk(40, time.Second)
	r.CompleteChunk(2 * time.Second)
	if r.State() != StateDecoding {
		t.Fatalf("state = %s", r.State())
	}
}

func TestSkipPrefillPanics(t *testing.T) {
	cases := []func(){
		func() { New(1, 0, 10, 2).SkipPrefill(0) },
		func() { New(1, 0, 10, 2).SkipPrefill(10) }, // must leave 1 token
		func() {
			r := New(1, 0, 10, 2)
			r.ScheduleChunk(5, 0)
			r.SkipPrefill(2)
		},
		func() {
			r := New(1, 0, 10, 2)
			r.SkipPrefill(4)
			r.SkipPrefill(4) // second skip: prefillDone != 0
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestResetPrefillSemantics(t *testing.T) {
	r := New(1, 0, 100, 5)
	r.ScheduleChunk(60, 0)
	r.CompleteChunk(time.Second)
	r.ResetPrefill()
	if r.State() != StateWaiting || r.PrefillDone() != 0 {
		t.Fatalf("after reset: %s done=%d", r.State(), r.PrefillDone())
	}
	if r.Preemptions != 1 {
		t.Fatalf("preemptions = %d", r.Preemptions)
	}
	// Invalid: reset with a chunk in flight.
	r2 := New(2, 0, 100, 5)
	r2.ScheduleChunk(60, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("reset with in-flight chunk did not panic")
		}
	}()
	r2.ResetPrefill()
}

func TestAbortSemantics(t *testing.T) {
	// Waiting, mid-prefill, and quiescent decoding requests can abort.
	w := New(1, 0, 100, 5)
	w.Abort()
	if !w.Aborted() || w.State().String() != "aborted" {
		t.Fatalf("state = %s", w.State())
	}

	p := New(2, 0, 100, 5)
	p.ScheduleChunk(60, 0)
	p.CompleteChunk(time.Second)
	p.Abort()
	if !p.Aborted() {
		t.Fatalf("state = %s", p.State())
	}

	d := New(3, 0, 10, 5)
	d.ScheduleChunk(10, 0)
	d.CompleteChunk(time.Second)
	if d.State() != StateDecoding {
		t.Fatalf("setup: %s", d.State())
	}
	d.Abort()
	if !d.Aborted() {
		t.Fatalf("state = %s", d.State())
	}
}

func TestAbortPanics(t *testing.T) {
	cases := []func(){
		func() { // in-flight chunk
			r := New(1, 0, 100, 5)
			r.ScheduleChunk(60, 0)
			r.Abort()
		},
		func() { // busy decode step
			r := New(2, 0, 10, 5)
			r.ScheduleChunk(10, 0)
			r.CompleteChunk(time.Second)
			r.ScheduleDecode()
			r.Abort()
		},
		func() { // already finished
			r := New(3, 0, 10, 1)
			r.ScheduleChunk(10, 0)
			r.CompleteChunk(time.Second)
			r.Abort()
		},
		func() { // double abort
			r := New(4, 0, 10, 5)
			r.Abort()
			r.Abort()
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

package sched

import (
	"testing"
	"time"

	"gllm/internal/core"
	"gllm/internal/kvcache"
	"gllm/internal/request"
)

func newPool(t *testing.T, kvTokens int64, depth int) *Pool {
	t.Helper()
	return NewPool(kvcache.New(kvTokens, 16), depth)
}

func TestPoolAddAndCounts(t *testing.T) {
	p := newPool(t, 1024, 4)
	if !p.Idle() {
		t.Fatal("fresh pool not idle")
	}
	p.Add(request.New(1, 0, 100, 5))
	p.Add(request.New(2, 0, 200, 5))
	if p.WaitingPrefillTokens() != 300 {
		t.Fatalf("WP = %d", p.WaitingPrefillTokens())
	}
	if p.PrefillQueueLen() != 2 || p.RunningDecode() != 0 {
		t.Fatal("queue counts wrong")
	}
	st := p.CoreState()
	if st.WaitingPrefillTokens != 300 || st.KVFreeRate != 1 || st.PipelineDepth != 4 {
		t.Fatalf("core state = %+v", st)
	}
}

func TestPoolAddPanicsOnNonWaiting(t *testing.T) {
	p := newPool(t, 1024, 1)
	r := request.New(1, 0, 10, 2)
	r.ScheduleChunk(10, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Add(r)
}

func TestNewPoolPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewPool(nil, 4) },
		func() { NewPool(kvcache.New(1024, 16), 0) },
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

func TestSarathiSchedulesDecodeFirstThenPrefill(t *testing.T) {
	p := newPool(t, 64*1024, 4)
	s := NewSarathi(2048)

	// One request fully prefilled into decode.
	r1 := request.New(1, 0, 100, 10)
	p.Add(r1)
	b1 := s.Schedule(p, 0)
	if b1.PrefillTokens() != 100 || b1.DecodeTokens() != 0 {
		t.Fatalf("batch1 = %d prefill / %d decode", b1.PrefillTokens(), b1.DecodeTokens())
	}
	p.Complete(b1, time.Second)
	if p.RunningDecode() != 1 {
		t.Fatalf("decoding = %d", p.RunningDecode())
	}

	// New arrival: decode token + chunked prefill within 2048 budget.
	r2 := request.New(2, 0, 5000, 10)
	p.Add(r2)
	b2 := s.Schedule(p, time.Second)
	if b2.DecodeTokens() != 1 {
		t.Fatalf("decode tokens = %d", b2.DecodeTokens())
	}
	if b2.PrefillTokens() != 2047 {
		t.Fatalf("prefill tokens = %d, want budget-decode = 2047", b2.PrefillTokens())
	}
	if b2.Tokens() != 2048 {
		t.Fatalf("batch tokens = %d", b2.Tokens())
	}
	_ = r2
}

func TestSarathiDecodeOnlyWhenNoPrefillWaiting(t *testing.T) {
	p := newPool(t, 64*1024, 4)
	s := NewSarathi(2048)
	for i := 0; i < 3; i++ {
		p.Add(request.New(int64(i), 0, 50, 10))
	}
	b := s.Schedule(p, 0)
	p.Complete(b, time.Second)
	// All three decoding now; Sarathi grabs all of them at once.
	b2 := s.Schedule(p, time.Second)
	if b2.DecodeTokens() != 3 || b2.PrefillTokens() != 0 {
		t.Fatalf("batch = %d prefill / %d decode", b2.PrefillTokens(), b2.DecodeTokens())
	}
}

func TestSarathiBudgetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSarathi(0)
}

func TestChunkSequencingBlocksSameRequestOnly(t *testing.T) {
	p := newPool(t, 64*1024, 4)
	s := NewSarathi(1000)
	r1 := request.New(1, 0, 3000, 5)
	r2 := request.New(2, 0, 500, 5)
	p.Add(r1)
	p.Add(r2)

	b1 := s.Schedule(p, 0)
	if len(b1.Chunks) != 1 || b1.Chunks[0].Req != r1 || b1.Chunks[0].Tokens != 1000 {
		t.Fatalf("batch1 chunks = %+v", b1.Chunks)
	}
	// r1's chunk is in flight: the next batch must take r2, not r1's chunk 2.
	b2 := s.Schedule(p, 0)
	if len(b2.Chunks) != 1 || b2.Chunks[0].Req != r2 || b2.Chunks[0].Tokens != 500 {
		t.Fatalf("batch2 chunks = %+v", b2.Chunks)
	}
	// Nothing left to schedule while both are in flight.
	b3 := s.Schedule(p, 0)
	if !b3.Empty() {
		t.Fatalf("batch3 not empty: %d tokens", b3.Tokens())
	}
	// Completing batch1 lets r1 continue with its next chunk at ctx 1000.
	p.Complete(b1, time.Second)
	b4 := s.Schedule(p, time.Second)
	if len(b4.Chunks) != 1 || b4.Chunks[0].Req != r1 || b4.Chunks[0].CtxStart != 1000 {
		t.Fatalf("batch4 chunks = %+v", b4.Chunks)
	}
}

// drain runs Schedule/Complete until the prefill queue empties (requests
// may accumulate decode progress along the way).
func drain(t *testing.T, p *Pool, s Scheduler) {
	t.Helper()
	for iter := 0; p.PrefillQueueLen() > 0; iter++ {
		if iter > 10_000 {
			t.Fatal("drain did not converge")
		}
		b := s.Schedule(p, 0)
		if b.Empty() {
			t.Fatal("stuck during prefill")
		}
		p.Complete(b, time.Second)
	}
}

func TestThrottleDecodeSpreadsOverDepth(t *testing.T) {
	p := newPool(t, 1<<20, 4)
	s := NewDefaultThrottle()
	// Bring 8 requests into decode (output long enough that none finish).
	for i := 0; i < 8; i++ {
		p.Add(request.New(int64(i), 0, 64, 1000))
	}
	drain(t, p, s)
	if p.RunningDecode() != 8 {
		t.Fatalf("decoding = %d", p.RunningDecode())
	}
	// Decode budget = ceil(8/4) = 2 per micro-batch.
	b := s.Schedule(p, time.Second)
	if b.DecodeTokens() != 2 {
		t.Fatalf("decode tokens = %d, want 2", b.DecodeTokens())
	}
	// Next micro-batch takes the next 2 (the first 2 are busy).
	b2 := s.Schedule(p, time.Second)
	if b2.DecodeTokens() != 2 {
		t.Fatalf("second decode batch = %d", b2.DecodeTokens())
	}
	// The same sequences are never double-scheduled.
	seen := map[int64]bool{}
	for _, r := range append(append([]*request.Request{}, b.Decodes...), b2.Decodes...) {
		if seen[r.ID] {
			t.Fatalf("sequence %d scheduled twice", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestThrottlePrefillUsesWTHorizon(t *testing.T) {
	p := newPool(t, 1<<20, 4)
	s := NewDefaultThrottle() // #T = 8
	p.Add(request.New(1, 0, 8000, 10))
	b := s.Schedule(p, 0)
	// 8000 waiting / 8 iterations = 1000 tokens.
	if b.PrefillTokens() != 1000 {
		t.Fatalf("prefill tokens = %d, want 1000", b.PrefillTokens())
	}
}

func TestThrottleSuspendsPrefillUnderKVPressure(t *testing.T) {
	// Tiny KV: 16 blocks of 16 = 256 tokens.
	p := newPool(t, 256, 2)
	s := NewDefaultThrottle()
	// Fill ~94% of KV with a decoding request.
	r1 := request.New(1, 0, 240, 5000)
	p.Add(r1)
	drain(t, p, s)
	if free := p.KV.FreeRate(); free > 0.10 {
		t.Fatalf("free rate = %v, setup broken", free)
	}
	// A new arrival must NOT be prefilled: KV_free (=1/16=0.0625) is above
	// thresh 0.05 but the budget collapses to MinP=32 and... verify gate
	// semantics with an even fuller cache below. First: budget is small.
	p.Add(request.New(2, 0, 5000, 10))
	b2 := s.Schedule(p, time.Second)
	if b2.PrefillTokens() > 32 {
		t.Fatalf("prefill under pressure = %d tokens", b2.PrefillTokens())
	}
}

func TestThrottleGateClosesBelowThreshold(t *testing.T) {
	params := core.Params{IterT: 8, MaxP: 2048, MinP: 32, KVThresh: 0.5}
	s := NewThrottle(params, core.VariantFull)
	p := newPool(t, 1024, 2) // 64 blocks
	// Occupy ~48% of the cache with prefill (gate still open), then let
	// decode growth push free rate below the 0.5 threshold.
	r1 := request.New(1, 0, 496, 5000)
	p.Add(r1)
	drain(t, p, s)
	for i := 0; i < 20; i++ {
		b := s.Schedule(p, 0)
		p.Complete(b, time.Second)
	}
	if p.KV.FreeRate() >= 0.5 {
		t.Fatalf("free rate %v, setup broken", p.KV.FreeRate())
	}
	p.Add(request.New(2, 0, 100, 5))
	b2 := s.Schedule(p, time.Second)
	if b2.PrefillTokens() != 0 {
		t.Fatalf("gate open below threshold: %d prefill tokens", b2.PrefillTokens())
	}
	// Decode continues regardless.
	if b2.DecodeTokens() != 1 {
		t.Fatalf("decode tokens = %d", b2.DecodeTokens())
	}
}

func TestPreemptionOnKVExhaustion(t *testing.T) {
	// 16 blocks of 16 = 256 tokens total. Each request individually fits
	// (100 + 150 = 250 <= 256) but together they overload the cache, so
	// the lower-priority request must be preempted and recomputed while
	// the older one runs to completion.
	p := newPool(t, 256, 1)
	s := NewSarathi(4096)
	r1 := request.New(1, 0, 100, 150)
	r2 := request.New(2, 0, 100, 150)
	p.Add(r1)
	p.Add(r2)

	now := time.Duration(0)
	for iter := 0; !p.Idle(); iter++ {
		if iter > 5000 {
			t.Fatalf("did not drain: r1=%v r2=%v free=%d", r1, r2, p.KV.FreeBlocks())
		}
		b := s.Schedule(p, now)
		if b.Empty() {
			t.Fatalf("deadlock at iter %d: r1=%v r2=%v free=%d", iter, r1, r2, p.KV.FreeBlocks())
		}
		now += time.Millisecond
		p.Complete(b, now)
		if err := p.KV.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	if !r1.Finished() || !r2.Finished() {
		t.Fatalf("states: r1=%s r2=%s", r1.State(), r2.State())
	}
	if p.Preemptions() == 0 {
		t.Fatal("no preemption despite KV overload")
	}
	// Victim order: the later request pays the preemptions, the older one
	// never does.
	if r1.Preemptions != 0 {
		t.Fatalf("r1 preempted %d times", r1.Preemptions)
	}
	if r2.Preemptions == 0 {
		t.Fatal("r2 never preempted")
	}
	// Recompute target covered the generated tokens.
	if r2.PrefillTarget() <= 100 {
		t.Fatalf("recompute target = %d", r2.PrefillTarget())
	}
	if p.KV.UsedBlocks() != 0 {
		t.Fatal("KV leaked")
	}
}

func TestCompleteTransitionsAndFinishes(t *testing.T) {
	p := newPool(t, 1024, 1)
	s := NewSarathi(4096)
	r := request.New(1, 0, 10, 1) // single output token: finishes at prefill
	p.Add(r)
	b := s.Schedule(p, 0)
	fin := p.Complete(b, time.Second)
	if len(fin) != 1 || fin[0] != r {
		t.Fatalf("finished = %v", fin)
	}
	if !p.Idle() {
		t.Fatal("pool not idle after completion")
	}
	if p.KV.UsedBlocks() != 0 {
		t.Fatal("KV not released on finish")
	}
}

func TestBatchShapeAggregation(t *testing.T) {
	p := newPool(t, 64*1024, 2)
	s := NewSarathi(512)
	r1 := request.New(1, 0, 700, 5)
	p.Add(r1)
	b1 := s.Schedule(p, 0)
	p.Complete(b1, time.Second) // 512 tokens done
	b2 := s.Schedule(p, time.Second)
	sh := b2.Shape()
	if sh.PrefillTokens != 188 {
		t.Fatalf("prefill tokens = %d", sh.PrefillTokens)
	}
	// Chunk starts at ctx 512: ctx sum = 188*512 + 188*187/2.
	want := 188*512.0 + 188*187.0/2
	if sh.PrefillCtxSum != want {
		t.Fatalf("ctx sum = %v, want %v", sh.PrefillCtxSum, want)
	}
	p.Complete(b2, 2*time.Second)
	b3 := s.Schedule(p, 2*time.Second)
	sh3 := b3.Shape()
	if sh3.DecodeTokens != 1 {
		t.Fatalf("decode tokens = %d", sh3.DecodeTokens)
	}
	// Context = 700 prefilled + 1 generated.
	if sh3.DecodeCtxSum != 701 {
		t.Fatalf("decode ctx = %v", sh3.DecodeCtxSum)
	}
}

// policyNames are the nine names ByName knows.
var policyNames = []string{"sarathi", "gllm", "gllm-no-wt", "gllm-no-ut", "gllm-ck", "vllm-ve", "td-pipe", "orca", "batch-level"}

func TestByName(t *testing.T) {
	params := core.DefaultParams()
	for _, name := range policyNames {
		s, err := ByName(name, 2048, params)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s == nil {
			t.Fatalf("%s: nil scheduler", name)
		}
	}
	if _, err := ByName("fcfs", 2048, params); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	s, _ := ByName("gllm-no-ut", 0, params)
	if s.Name() != "gllm-no-ut" {
		t.Fatalf("name = %s", s.Name())
	}
}

func TestThrottleNamePerVariant(t *testing.T) {
	if NewDefaultThrottle().Name() != "gllm" {
		t.Fatal("full variant name")
	}
	if NewThrottle(core.DefaultParams(), core.VariantNoWT).Name() != "gllm-no-wt" {
		t.Fatal("no-wt name")
	}
}

func TestThrottleInvalidParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewThrottle(core.Params{}, core.VariantFull)
}

// TestFullServeDrainsEverything drives an entire workload through both
// schedulers and checks that every request finishes and KV drains to empty.
func TestFullServeDrainsEverything(t *testing.T) {
	for _, mk := range []func() Scheduler{
		func() Scheduler { return NewSarathi(2048) },
		func() Scheduler { return NewDefaultThrottle() },
	} {
		s := mk()
		p := newPool(t, 32*1024, 4)
		for i := 0; i < 40; i++ {
			p.Add(request.New(int64(i), 0, 100+i*13, 5+i%7))
		}
		finished := 0
		now := time.Duration(0)
		for iter := 0; iter < 10_000 && !p.Idle(); iter++ {
			b := s.Schedule(p, now)
			if b.Empty() {
				t.Fatalf("%s: empty batch with pending work (iter %d)", s.Name(), iter)
			}
			now += time.Millisecond
			finished += len(p.Complete(b, now))
			if err := p.KV.Verify(); err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
		}
		if finished != 40 {
			t.Fatalf("%s: finished %d/40", s.Name(), finished)
		}
		if p.KV.UsedBlocks() != 0 {
			t.Fatalf("%s: %d KV blocks leaked", s.Name(), p.KV.UsedBlocks())
		}
	}
}

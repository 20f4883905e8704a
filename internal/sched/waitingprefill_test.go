package sched

import (
	"testing"
	"time"

	"gllm/internal/kvcache"
	"gllm/internal/request"
)

// wantWP re-derives #WP from the queue and compares it with the pool's
// incrementally maintained counter.
func wantWP(t *testing.T, p *Pool, where string) {
	t.Helper()
	sum := 0
	for _, r := range p.PrefillQueue() {
		sum += r.RemainingPrefill()
	}
	if got := p.WaitingPrefillTokens(); got != sum {
		t.Fatalf("%s: WaitingPrefillTokens = %d, queue holds %d", where, got, sum)
	}
}

// TestWaitingPrefillTracksEveryMutationSite walks one pool through each
// site that moves #WP — admission, chunk scheduling, a prefix attach,
// mid-prefill eviction, decode preemption, abort and completion — checking
// the counter against a rescan after every step.
func TestWaitingPrefillTracksEveryMutationSite(t *testing.T) {
	p := NewPool(kvcache.New(64*16, 16), 1)
	p.EnablePrefixCache = true
	s := NewSarathi(128)

	// Admission, chunked scheduling, completion.
	a := request.New(1, 0, 300, 4)
	a.PrefixGroup, a.SharedPrefixLen = 9, 300
	p.Add(a)
	wantWP(t, p, "add")
	if p.WaitingPrefillTokens() != 300 {
		t.Fatalf("WP = %d after admitting 300 tokens", p.WaitingPrefillTokens())
	}
	now := time.Duration(0)
	step := func(where string) *Batch {
		t.Helper()
		b := s.Schedule(p, now)
		wantWP(t, p, where+": scheduled")
		now += time.Millisecond
		p.Complete(b, now)
		wantWP(t, p, where+": completed")
		return b
	}
	step("chunk 1")
	if p.WaitingPrefillTokens() != 300-128 {
		t.Fatalf("WP = %d after one 128-token chunk", p.WaitingPrefillTokens())
	}
	for a.State() != request.StateFinished {
		step("request a")
	}

	// A prefix attach credits tokens without scheduling them.
	b := request.New(2, 0, 200, 2)
	b.PrefixGroup, b.SharedPrefixLen = 9, 200
	p.Add(b)
	step("attach")
	if hits, _ := p.KV.PrefixHits(); hits != 1 {
		t.Fatalf("prefix hits = %d, the attach site was not exercised", hits)
	}
	for b.State() != request.StateFinished {
		step("request b")
	}

	// Mid-prefill eviction puts the committed tokens back.
	c := request.New(3, 0, 400, 2)
	p.Add(c)
	step("request c chunk 1")
	if c.State() != request.StatePrefilling || c.PrefillDone() == 0 {
		t.Fatalf("setup: %v", c)
	}
	p.evict(c)
	wantWP(t, p, "evict")
	if p.WaitingPrefillTokens() != 400 {
		t.Fatalf("WP = %d after evicting a 400-token prefill", p.WaitingPrefillTokens())
	}

	// Abort of a waiting request removes its share.
	p.Abort(c)
	wantWP(t, p, "abort")
	if p.WaitingPrefillTokens() != 0 {
		t.Fatalf("WP = %d with an empty queue", p.WaitingPrefillTokens())
	}

	// Decode preemption re-queues the whole context.
	d := request.New(4, 0, 100, 50)
	p.Add(d)
	for d.State() != request.StateDecoding {
		step("request d prefill")
	}
	step("request d decode")
	p.preempt(d)
	wantWP(t, p, "preempt")
	if got, want := p.WaitingPrefillTokens(), d.PrefillTarget(); got != want || want <= 100 {
		t.Fatalf("WP = %d after preempting a decoder with a %d-token context", got, want)
	}
}

// TestPreemptKeepsPrefillWalkOrder: preempting a decoding victim from
// inside buildPrefill shifts the live queue in place; the walk must keep
// serving the admission order it started with (and the victim, now at the
// front, must wait for the next call).
func TestPreemptKeepsPrefillWalkOrder(t *testing.T) {
	p := NewPool(kvcache.New(8*16, 16), 1)
	s := NewSarathi(64)
	old := request.New(1, 0, 96, 8) // six blocks, prefilled over two chunks
	p.Add(old)
	p.Complete(s.Schedule(p, 0), time.Millisecond) // 64 of 96 committed
	young := request.New(2, time.Second, 16, 8)
	p.Add(young)
	// Prefill only the young request into decode, holding blocks old needs.
	b := p.GetBatch()
	if err := p.KV.Allocate(kvSeq(young), 16); err != nil {
		t.Fatal(err)
	}
	p.ScheduleChunk(young, 16, 0)
	b.Chunks = append(b.Chunks, Chunk{Req: young, Tokens: 16})
	p.Complete(b, 2*time.Millisecond)
	if young.State() != request.StateDecoding {
		t.Fatalf("setup: %v", young)
	}
	// Fill the cache so old's continuation cannot advance without a victim.
	if err := p.KV.Allocate(99, p.KV.FreeBlocks()*16); err != nil {
		t.Fatal(err)
	}
	before := append([]*request.Request(nil), p.PrefillQueue()...)
	nb := p.GetBatch()
	p.buildPrefill(nb, p.prefillQ, 64, 3*time.Millisecond, nil, false)
	if young.State() != request.StateWaiting || p.Preemptions() != 1 {
		t.Fatalf("young not preempted: %v, %d preemptions", young, p.Preemptions())
	}
	if q := p.PrefillQueue(); len(q) != len(before)+1 || q[0] != young || q[1] != before[0] {
		t.Fatalf("queue after preemption = %v", q)
	}
	if len(nb.Chunks) != 1 || nb.Chunks[0].Req != old {
		t.Fatalf("batch = %+v, want one chunk of the old request", nb.Chunks)
	}
	wantWP(t, p, "after in-walk preemption")
}

// TestScheduleCompleteAllocationFree: with 1 000 decoding residents, one
// throttle decision plus its completion must not allocate — the batch, the
// finished list and the snapshot buffers are all pool-owned scratch.
func TestScheduleCompleteAllocationFree(t *testing.T) {
	const residents = 1000
	// One 1024-token block holds a resident's whole life here, so the
	// measurement sees the scheduling path and not page-table growth (which
	// allocates once per doubling, amortized over hundreds of tokens).
	p := NewPool(kvcache.New(2*residents*1024, 1024), 4)
	for i := 0; i < residents; i++ {
		p.Add(request.New(int64(i), 0, 64, 1<<20))
	}
	s := NewDefaultThrottle()
	step := func() {
		b := s.Schedule(p, 0)
		p.Complete(b, 0)
		p.PutBatch(b)
	}
	for p.PrefillQueueLen() > 0 {
		step()
	}
	for i := 0; i < 8; i++ {
		step() // size the recycled batch and the finished scratch
	}
	if got := testing.AllocsPerRun(200, step); got != 0 {
		t.Errorf("Schedule+Complete at %d residents: %v allocs per iteration, want 0", residents, got)
	}
}

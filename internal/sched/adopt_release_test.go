package sched

import (
	"testing"
	"time"

	"gllm/internal/kvcache"
	"gllm/internal/request"
)

// driveToDecoding runs Sarathi schedule/complete cycles until r is decoding
// (prefill done, first token emitted).
func driveToDecoding(t *testing.T, p *Pool, s Scheduler, r *request.Request) {
	t.Helper()
	now := time.Duration(0)
	for i := 0; i < 50 && r.State() != request.StateDecoding; i++ {
		b := s.Schedule(p, now)
		if b.Empty() {
			t.Fatalf("scheduler stalled before %v reached decode", r)
		}
		now += time.Millisecond
		p.Complete(b, now)
	}
	if r.State() != request.StateDecoding {
		t.Fatalf("request never reached decode: %v", r)
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestReleaseAdoptMigration walks the disaggregation hand-off: a request
// decodes on pool A, is released (KV intact), its context is allocated on
// pool B, adopted there, and finishes there — with both caches clean at
// the end. It leaves A holding a KV handle into A's cache; release and
// adopt must each drop it, and B's appends must land in B's cache even when
// the test hands the request A's handle back.
func TestReleaseAdoptMigration(t *testing.T) {
	a := NewPool(kvcache.New(1<<12, 16), 2)
	b := NewPool(kvcache.New(1<<12, 16), 2)
	s := NewSarathi(256)
	r := request.New(7, 0, 40, 4)
	a.Add(r)
	driveToDecoding(t, a, s, r)
	a.Complete(s.Schedule(a, time.Second), time.Second) // one decode step on A
	intoA := r.KVSeq
	if intoA == (kvcache.Handle{}) {
		t.Fatal("a decode step on A left the request no handle")
	}
	id := kvcache.SeqID(r.ID)
	ctx := r.ContextLen()

	a.ReleaseDecoding(r)
	if r.KVSeq != (kvcache.Handle{}) {
		t.Fatal("release left the request its handle into the source cache")
	}
	r.KVSeq = intoA
	if a.RunningDecode() != 0 || !a.Idle() {
		t.Fatalf("release left pool A non-idle: decode=%d", a.RunningDecode())
	}
	if !a.KV.Has(id) {
		t.Fatal("release freed the source KV; migration needs it for the transfer")
	}

	// Destination allocates the full context, adopts, then the source frees.
	if err := b.KV.Allocate(id, ctx); err != nil {
		t.Fatal(err)
	}
	b.AdoptDecoding(r)
	if r.KVSeq != (kvcache.Handle{}) {
		t.Fatal("adopt left the request a handle from elsewhere")
	}
	r.KVSeq = intoA // resident in A now, freed below: stale both ways
	a.KV.Free(id)
	if a.KV.Has(id) || a.KV.UsedBlocks() != 0 {
		t.Fatalf("source KV not clean after transfer: used=%d", a.KV.UsedBlocks())
	}
	if b.RunningDecode() != 1 {
		t.Fatalf("pool B decode count = %d, want 1", b.RunningDecode())
	}

	// Finish the request on B.
	now := time.Second
	for i := 0; i < 20 && !r.Finished(); i++ {
		held := b.KV.TokensOf(id)
		batch := s.Schedule(b, now)
		if batch.Empty() {
			t.Fatalf("pool B stalled with adopted request: %v", r)
		}
		if got := b.KV.TokensOf(id); got != held+1 {
			t.Fatalf("pool B's cache holds %d tokens after reserving a decode slot, want %d", got, held+1)
		}
		now += time.Millisecond
		b.Complete(batch, now)
	}
	if !r.Finished() {
		t.Fatalf("adopted request never finished: %v", r)
	}
	if b.KV.Has(id) || b.KV.UsedBlocks() != 0 {
		t.Fatalf("destination KV leaked after finish: used=%d", b.KV.UsedBlocks())
	}
	if err := a.KV.Verify(); err != nil {
		t.Errorf("pool A cache: %v", err)
	}
	if err := b.KV.Verify(); err != nil {
		t.Errorf("pool B cache: %v", err)
	}
}

func TestReleaseAdoptPanics(t *testing.T) {
	p := NewPool(kvcache.New(1<<12, 16), 2)
	s := NewSarathi(256)

	waiting := request.New(0, 0, 30, 4)
	p.Add(waiting)
	mustPanic(t, "ReleaseDecoding(waiting)", func() { p.ReleaseDecoding(waiting) })
	mustPanic(t, "AdoptDecoding(waiting)", func() { p.AdoptDecoding(waiting) })

	driveToDecoding(t, p, s, waiting)
	id := kvcache.SeqID(waiting.ID)

	// A busy decode (in-flight step) may be neither released nor adopted.
	if err := p.KV.Allocate(id, 1); err != nil {
		t.Fatal(err)
	}
	waiting.ScheduleDecode()
	mustPanic(t, "ReleaseDecoding(busy)", func() { p.ReleaseDecoding(waiting) })
	mustPanic(t, "AdoptDecoding(busy)", func() { p.AdoptDecoding(waiting) })
	waiting.CompleteDecode(time.Second)

	// Adopting without KV residency in the destination pool panics.
	other := NewPool(kvcache.New(1<<12, 16), 2)
	p.ReleaseDecoding(waiting)
	mustPanic(t, "AdoptDecoding(no KV)", func() { other.AdoptDecoding(waiting) })
}

// TestVirtualEnginesStampsRoundRobin: the request → engine assignment is a
// stamp on the request, so the scheduler keeps nothing per request; the
// round-robin cursor must run on across requests that finish, and a stamp
// from another scheduler's range must read as unassigned.
func TestVirtualEnginesStampsRoundRobin(t *testing.T) {
	p := NewPool(kvcache.New(1<<14, 16), 2)
	v := NewVirtualEngines(512, 4)
	other := NewVirtualEngines(512, 4)
	now := time.Duration(0)
	for i := 0; i < 80; i++ {
		r := request.New(int64(i), 0, 8, 1)
		if i%3 == 0 {
			r.SchedStamp = other.stamp((i + 1) % 4) // as if other had scheduled it
		}
		p.Add(r)
		for j := 0; j < 10 && !r.Finished(); j++ {
			b := v.Schedule(p, now)
			if b.Empty() {
				t.Fatalf("virtual engines stalled on request %d", i)
			}
			now += time.Millisecond
			p.Complete(b, now)
		}
		if !r.Finished() {
			t.Fatalf("request %d never finished", i)
		}
		if got, want := r.SchedStamp, v.stamp(i%4); got != want {
			t.Fatalf("request %d stamped %d, want engine %d's %d", i, got, i%4, want)
		}
	}
}

// TestVirtualEnginesRotationSkipsIdle: with a single assigned request and
// four engines, every Schedule call must produce work — an idle virtual
// engine's turn may not emit an empty batch while another engine has work.
func TestVirtualEnginesRotationSkipsIdle(t *testing.T) {
	p := NewPool(kvcache.New(1<<12, 16), 2)
	v := NewVirtualEngines(256, 4)
	r := request.New(0, 0, 20, 4)
	p.Add(r)
	now := time.Duration(0)
	for i := 0; i < 20 && !r.Finished(); i++ {
		b := v.Schedule(p, now)
		if b.Empty() {
			t.Fatalf("iteration %d: empty batch while %v still has work", i, r)
		}
		now += time.Millisecond
		p.Complete(b, now)
	}
	if !r.Finished() {
		t.Fatalf("request starved under rotation: %v", r)
	}
}

// TestKVHandleAcrossPreemptAndRecompute: under KV pressure the younger of
// two requests decodes, is preempted, re-prefills under its old SeqID and
// decodes again. The pool drops the handle at the preempt; the test then
// puts the dropped one back, as stale as a handle gets (its struct freed
// and recycled), and every later decode append must still land in the
// sequence the cache keeps under the request's ID.
func TestKVHandleAcrossPreemptAndRecompute(t *testing.T) {
	p := NewPool(kvcache.New(8*16, 16), 1)
	s := NewSarathi(256)
	old, young := request.New(0, 0, 60, 30), request.New(1, time.Millisecond, 40, 30)
	p.Add(old)
	p.Add(young)
	var stale kvcache.Handle
	decodedBefore, decodedAfter := false, false
	now := time.Duration(0)
	for i := 0; !(old.Finished() && young.Finished()); i++ {
		if i > 1000 {
			t.Fatalf("did not drain: %v %v", old, young)
		}
		before := [2]int{p.KV.TokensOf(0), p.KV.TokensOf(1)}
		b := s.Schedule(p, now)
		if b.Empty() {
			t.Fatalf("stalled: %v %v", old, young)
		}
		for _, r := range b.Decodes {
			if r.KVSeq == (kvcache.Handle{}) {
				t.Fatalf("%v scheduled to decode without a handle", r)
			}
			if got, want := p.KV.TokensOf(kvcache.SeqID(r.ID)), before[r.ID]+1; got != want {
				t.Fatalf("%v: cache holds %d tokens after reserving the step's slot, want %d", r, got, want)
			}
			if r == young {
				if young.Preemptions == 0 {
					decodedBefore, stale = true, young.KVSeq
				} else {
					decodedAfter = true
				}
			}
		}
		if young.State() == request.StateWaiting && young.Preemptions > 0 {
			if young.KVSeq != (kvcache.Handle{}) {
				t.Fatal("preempt left the request its handle")
			}
			young.KVSeq = stale
		}
		if err := p.KV.Verify(); err != nil {
			t.Fatal(err)
		}
		now += time.Millisecond
		p.Complete(b, now)
	}
	if !decodedBefore || !decodedAfter || young.Preemptions == 0 {
		t.Fatalf("scenario not reached: decoded before %v, after %v, %d preemptions", decodedBefore, decodedAfter, young.Preemptions)
	}
	if old.KVSeq != (kvcache.Handle{}) || young.KVSeq != (kvcache.Handle{}) {
		t.Fatal("a finished request kept its handle")
	}
	if p.KV.UsedBlocks() != 0 {
		t.Fatalf("%d blocks still used after drain", p.KV.UsedBlocks())
	}
}

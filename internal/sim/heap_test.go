package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"
)

// TestHeapGlobalOrder pushes a large scrambled schedule (with many duplicate
// timestamps) directly into the heap and verifies pops come out in strict
// (at, seq) order — the kernel's determinism contract.
func TestHeapGlobalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h eventHeap
	type key struct {
		at  time.Duration
		seq uint64
	}
	var want []key
	for seq := uint64(1); seq <= 4096; seq++ {
		at := time.Duration(rng.Intn(64)) * time.Millisecond
		h.push(event{at: at, seq: seq})
		want = append(want, key{at, seq})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	for i, w := range want {
		got := h.pop()
		if got.at != w.at || got.seq != w.seq {
			t.Fatalf("pop %d = (%v, %d), want (%v, %d)", i, got.at, got.seq, w.at, w.seq)
		}
	}
	if h.len() != 0 {
		t.Fatalf("heap not drained: %d left", h.len())
	}
}

// TestHeapInterleavedPushPop mixes pushes and pops (the simulator's actual
// access pattern: events schedule more events) and checks the running
// minimum never regresses.
func TestHeapInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h eventHeap
	seq := uint64(0)
	var last event
	popped := 0
	for round := 0; round < 2000; round++ {
		for i := 0; i < 1+rng.Intn(4); i++ {
			seq++
			// Never schedule before the last popped timestamp (mirrors the
			// Engine's no-past invariant).
			at := last.at + time.Duration(rng.Intn(10))*time.Millisecond
			h.push(event{at: at, seq: seq})
		}
		if h.len() > 0 && rng.Intn(2) == 0 {
			got := h.pop()
			popped++
			if got.before(last) {
				t.Fatalf("pop went backwards: (%v,%d) after (%v,%d)", got.at, got.seq, last.at, last.seq)
			}
			last = got
		}
	}
	for h.len() > 0 {
		got := h.pop()
		popped++
		if got.before(last) {
			t.Fatalf("drain went backwards: (%v,%d) after (%v,%d)", got.at, got.seq, last.at, last.seq)
		}
		last = got
	}
	if popped != int(seq) {
		t.Fatalf("popped %d of %d pushed", popped, seq)
	}
}

func TestEngineReset(t *testing.T) {
	e := New()
	ran := 0
	e.After(time.Second, func() { ran++ })
	e.After(2*time.Second, func() { ran++ })
	e.Step()
	if ran != 1 || e.Executed() != 1 || e.Now() != time.Second {
		t.Fatalf("pre-reset state: ran=%d executed=%d now=%v", ran, e.Executed(), e.Now())
	}
	e.Reset()
	if e.Now() != 0 || e.Executed() != 0 {
		t.Fatalf("post-reset state: now=%v executed=%d", e.Now(), e.Executed())
	}
	// The dropped event must never fire; the reused engine behaves like new,
	// including FIFO tie-breaking (seq restarts).
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.At(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	if ran != 1 {
		t.Fatalf("dropped event fired: ran=%d", ran)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("post-reset ties not FIFO at %d: %v", i, v)
		}
	}
	if e.Now() != time.Second || e.Executed() != 50 {
		t.Fatalf("post-reset run: now=%v executed=%d", e.Now(), e.Executed())
	}

	// Reset must drop the closures of both queues: three in time order in
	// the sorted run, two out of order in the heap, one of which runs first.
	freed := make(chan struct{}, 5)
	for _, at := range []time.Duration{2, 3, 4, 1, 2} {
		payload := new([64]byte)
		runtime.SetFinalizer(payload, func(*[64]byte) { freed <- struct{}{} })
		e.At(e.Now()+at*time.Second, func() { payload[0]++ })
	}
	e.Step()
	if e.sorted.len() != 3 || e.events.len() != 1 {
		t.Fatalf("pending split sorted=%d heap=%d, want 3 and 1", e.sorted.len(), e.events.len())
	}
	e.Reset()
	if n := e.sorted.len() + e.events.len(); n != 0 {
		t.Fatalf("%d events pending after Reset", n)
	}
	for got := 0; got < 5; {
		runtime.GC() // finalizers run on their own goroutine after a cycle
		select {
		case <-freed:
			got++
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of 5 dropped events' captures were collected", got)
		}
	}
	runtime.KeepAlive(e)
}

// The clock at steady state — events re-arming in time order behind one
// another, so the sorted run never drains, beside a few out-of-order ones in
// the heap — allocates nothing, and the sorted run's array stays bounded
// instead of growing by one event per step.
func TestEngineSteadyStateAllocationFree(t *testing.T) {
	const chains = 8
	e := New()
	var rearm [chains]func()
	for i := range rearm {
		rearm[i] = func() {
			e.After(chains*time.Microsecond, rearm[i])
			if i == 0 { // out of order: ahead of every pending chain
				e.After(time.Nanosecond, func() {})
			}
		}
		e.At(time.Duration(i)*time.Microsecond, rearm[i])
	}
	steps := func() {
		for range 10_000 {
			e.Step()
		}
	}
	steps()
	if avg := testing.AllocsPerRun(10, steps); avg != 0 {
		t.Fatalf("%.1f allocations per 10 000 steps, want 0", avg)
	}
	if c := cap(e.sorted.a); c > 4*chains {
		t.Fatalf("sorted run capacity %d for %d pending events", c, chains)
	}
	if e.events.len() > 1 {
		t.Fatalf("heap holds %d events, want at most 1", e.events.len())
	}
}

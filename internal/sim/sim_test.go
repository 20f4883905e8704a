package sim

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(30*time.Millisecond, func() { order = append(order, 3) })
	e.At(10*time.Millisecond, func() { order = append(order, 1) })
	e.At(20*time.Millisecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("final time = %v", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO at %d: %v", i, v)
		}
	}
}

func TestEngineAfter(t *testing.T) {
	e := New()
	var at time.Duration
	e.After(time.Second, func() {
		e.After(2*time.Second, func() { at = e.Now() })
	})
	e.Run()
	if at != 3*time.Second {
		t.Fatalf("nested After fired at %v", at)
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := New()
	e.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in past did not panic")
			}
		}()
		e.At(0, func() {})
	})
	e.Run()
}

func TestEngineNegativeAfterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	New().After(-1, func() {})
}

func TestStepOnEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty returned true")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := New()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			e.After(time.Millisecond, chain)
		}
	}
	e.After(0, chain)
	e.Run()
	if count != 5 {
		t.Fatalf("chain count = %d", count)
	}
}

func TestQuickEventTimesNonDecreasing(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var last time.Duration
		ok := true
		for _, d := range delays {
			e.At(time.Duration(d)*time.Millisecond, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceFIFOService(t *testing.T) {
	e := New()
	r := NewResource(e, "gpu0")
	var done []int
	r.Submit(10*time.Millisecond, func() { done = append(done, 1) })
	r.Submit(5*time.Millisecond, func() { done = append(done, 2) })
	r.Submit(1*time.Millisecond, func() { done = append(done, 3) })
	if r.QueueLen() != 2 {
		t.Fatalf("queue len = %d", r.QueueLen())
	}
	e.Run()
	if len(done) != 3 || done[0] != 1 || done[1] != 2 || done[2] != 3 {
		t.Fatalf("completion order = %v", done)
	}
	if e.Now() != 16*time.Millisecond {
		t.Fatalf("makespan = %v, want 16ms", e.Now())
	}
}

func TestResourceBusyTime(t *testing.T) {
	e := New()
	r := NewResource(e, "x")
	r.Submit(10*time.Millisecond, nil)
	e.After(20*time.Millisecond, func() {
		r.Submit(10*time.Millisecond, nil)
	})
	e.Run()
	if r.BusyTime() != 20*time.Millisecond {
		t.Fatalf("busy = %v", r.BusyTime())
	}
}

func TestResourceMidJobBusyTime(t *testing.T) {
	e := New()
	r := NewResource(e, "x")
	r.Submit(10*time.Millisecond, nil)
	e.At(4*time.Millisecond, func() {
		if r.BusyTime() != 4*time.Millisecond {
			t.Fatalf("mid-job busy = %v", r.BusyTime())
		}
		if !r.Busy() {
			t.Fatal("resource should be busy")
		}
	})
	e.Run()
}

func TestResourceZeroDurationJob(t *testing.T) {
	e := New()
	r := NewResource(e, "x")
	ran := false
	r.Submit(0, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("zero-duration job did not complete")
	}
}

func TestResourceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Submit did not panic")
		}
	}()
	NewResource(New(), "x").Submit(-1, nil)
}

func TestResourceSubmitFromCompletion(t *testing.T) {
	e := New()
	r := NewResource(e, "x")
	count := 0
	var resubmit func()
	resubmit = func() {
		count++
		if count < 3 {
			r.Submit(time.Millisecond, resubmit)
		}
	}
	r.Submit(time.Millisecond, resubmit)
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
	if e.Now() != 3*time.Millisecond {
		t.Fatalf("now = %v", e.Now())
	}
}

// A resource at steady state — jobs queue behind the one in service and
// complete in turn — reuses its queue's array and its one bound completion
// callback, so the cycle allocates nothing once the caller's done callback
// exists.
func TestResourceSteadyStateAllocationFree(t *testing.T) {
	e := New()
	r := NewResource(e, "gpu0")
	done := func() {}
	cycle := func() {
		for i := 0; i < 4; i++ {
			r.Submit(time.Millisecond, done)
		}
		e.Run()
	}
	cycle() // grow the queue and the event heap once
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("%.1f allocations per 4-job cycle, want 0", avg)
	}
}

// Neither the queue nor the resource may keep a completed job's callback
// reachable: whatever the callback captured must be collectable as soon as
// it has run, not when the queue next regrows.
func TestResourceReleasesCompletedJobs(t *testing.T) {
	e := New()
	r := NewResource(e, "gpu0")
	freed := make(chan struct{}, 3)
	for i := 0; i < 3; i++ { // one in service, two queued
		payload := new([64]byte)
		runtime.SetFinalizer(payload, func(*[64]byte) { freed <- struct{}{} })
		r.Submit(time.Millisecond, func() { payload[0]++ })
	}
	e.Run()
	for got := 0; got < 3; {
		runtime.GC() // finalizers run on their own goroutine after a cycle
		select {
		case <-freed:
			got++
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of 3 completed jobs' captures were collected; queue cap %d", got, cap(r.queue))
		}
	}
	runtime.KeepAlive(r)
}

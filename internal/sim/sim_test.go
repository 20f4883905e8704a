package sim

import (
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

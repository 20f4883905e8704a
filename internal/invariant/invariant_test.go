package invariant

import (
	"strings"
	"testing"
	"time"

	"gllm/internal/kvcache"
	"gllm/internal/request"
	"gllm/internal/sched"
)

func newTestPool(capTokens int64) (*sched.Pool, *sched.Sarathi) {
	return sched.NewPool(kvcache.New(capTokens, 16), 2), sched.NewSarathi(256)
}

// step drives one schedule+complete cycle through the checker.
func step(p *sched.Pool, s sched.Scheduler, c *Checker, now time.Duration) *sched.Batch {
	c.BeforeSchedule(now)
	b := s.Schedule(p, now)
	c.AfterSchedule(b, now)
	if !b.Empty() {
		finished := p.Complete(b, now+time.Millisecond)
		c.AfterComplete(b, finished, now+time.Millisecond)
	}
	return b
}

func TestCheckerCleanLifecycle(t *testing.T) {
	p, s := newTestPool(1 << 12)
	c := New(p, s)
	p.Add(request.New(0, 0, 300, 3)) // two chunks under the 256 budget
	p.Add(request.New(1, 0, 40, 2))
	now := time.Duration(0)
	for i := 0; i < 20 && !p.Idle(); i++ {
		step(p, s, c, now)
		now += 2 * time.Millisecond
	}
	if !p.Idle() {
		t.Fatalf("requests did not finish")
	}
	if err := c.Final(now); err != nil {
		t.Fatalf("clean lifecycle flagged: %v", err)
	}
	if c.Cycles() == 0 {
		t.Fatal("checker audited zero cycles")
	}
}

func TestCheckerFlagsBackwardTime(t *testing.T) {
	p, s := newTestPool(1 << 12)
	c := New(p, s)
	c.BeforeSchedule(5 * time.Millisecond)
	c.AfterSchedule(&sched.Batch{}, 5*time.Millisecond)
	c.BeforeSchedule(2 * time.Millisecond)
	err := c.Err()
	if err == nil {
		t.Fatal("backward time escaped")
	}
	if v := err.(Violation); v.Invariant != InvMonotonicTime {
		t.Fatalf("flagged %s, want %s", v.Invariant, InvMonotonicTime)
	}
}

func TestCheckerFlagsDuplicateDecodeInBatch(t *testing.T) {
	p, s := newTestPool(1 << 12)
	c := New(p, s)
	r := request.New(0, 0, 10, 5)
	p.Add(r)
	step(p, s, c, 0) // prefill completes, r enters decode
	if r.State() != request.StateDecoding {
		t.Fatalf("setup: %v", r)
	}
	// Fabricate a batch listing the same decode step twice.
	if err := p.KV.Allocate(kvcache.SeqID(r.ID), 1); err != nil {
		t.Fatal(err)
	}
	r.ScheduleDecode()
	b := &sched.Batch{Decodes: []*request.Request{r, r}}
	c.BeforeSchedule(2 * time.Millisecond)
	c.AfterSchedule(b, 2*time.Millisecond)
	err := c.Err()
	if err == nil {
		t.Fatal("duplicate decode escaped")
	}
	if v := err.(Violation); v.Invariant != InvDecodeConservation {
		t.Fatalf("flagged %s, want %s", v.Invariant, InvDecodeConservation)
	}
}

func TestCheckerFlagsOrphanSequenceAtFinal(t *testing.T) {
	p, s := newTestPool(1 << 12)
	c := New(p, s)
	if err := p.KV.Allocate(kvcache.SeqID(99), 8); err != nil {
		t.Fatal(err)
	}
	err := c.Final(0)
	if err == nil {
		t.Fatal("orphan sequence escaped Final")
	}
	if v := err.(Violation); v.Invariant != InvKVLeak {
		t.Fatalf("flagged %s, want %s", v.Invariant, InvKVLeak)
	}
	// MarkExternal exempts it.
	c2 := New(p, s)
	c2.MarkExternal(kvcache.SeqID(99))
	if err := c2.Final(0); err != nil {
		t.Fatalf("marked-external sequence flagged: %v", err)
	}
}

func TestViolationError(t *testing.T) {
	v := Violation{Invariant: InvBatchBudget, Time: time.Second, Detail: "too big"}
	msg := v.Error()
	for _, want := range []string{InvBatchBudget, "1s", "too big"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestMaxViolationsCap(t *testing.T) {
	p, s := newTestPool(1 << 12)
	c := New(p, s)
	for i := 0; i < maxViolations+5; i++ {
		c.violate(InvMonotonicTime, 0, "n=%d", i)
	}
	if got := len(c.Violations()); got != maxViolations {
		t.Fatalf("recorded %d violations, want cap %d", got, maxViolations)
	}
}

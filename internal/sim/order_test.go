package sim

import (
	"slices"
	"testing"
	"time"
)

// clock is what a fuzzed schedule drives: the Engine, or refClock.
type clock interface {
	Now() time.Duration
	At(t time.Duration, fn func())
	After(d time.Duration, fn func())
	Step() bool
	Reset()
}

// refClock is the order contract written the obvious way: a flat list of
// pending events, the least (at, seq) of which runs next.
type refClock struct {
	now     time.Duration
	seq     uint64
	pending []event
}

func (c *refClock) Now() time.Duration { return c.now }

func (c *refClock) At(t time.Duration, fn func()) {
	c.seq++
	c.pending = append(c.pending, event{at: t, seq: c.seq, fn: fn})
}

func (c *refClock) After(d time.Duration, fn func()) { c.At(c.now+d, fn) }

func (c *refClock) Step() bool {
	if len(c.pending) == 0 {
		return false
	}
	least := 0
	for i := range c.pending {
		if c.pending[i].before(c.pending[least]) {
			least = i
		}
	}
	ev := c.pending[least]
	c.pending = slices.Delete(c.pending, least, least+1)
	c.now = ev.at
	ev.fn()
	return true
}

func (c *refClock) Reset() { *c = refClock{} }

// ran is one executed event: its creation ordinal and the clock it saw.
type ran struct {
	id int
	at time.Duration
}

// play interprets prog as a schedule on c and returns what ran, in order.
// Each top-level byte is an op in its low two bits with an argument above:
//
//	0  pre-load 1–8 events in time order (one byte each: the gap to the
//	   previous one, 0–3 ns, so equal timestamps are common)
//	1  schedule one event arg ns from now (out of order against a pre-load)
//	2  run arg+1 steps
//	3  Reset when arg < 8 (dropping whatever is pending), else run dry
//
// Every executed event reads one byte: its low two bits are how many
// children it schedules, from inside the callback, half with At and half
// with After, at small delays so they tie with each other and with pending
// events.
func play(c clock, prog []byte) []ran {
	var out []ran
	pos, ids := 0, 0
	read := func() (byte, bool) {
		if pos == len(prog) {
			return 0, false
		}
		pos++
		return prog[pos-1], true
	}
	// newEvent returns a new event's callback: it records the run and
	// schedules the children its byte asks for.
	var newEvent func() func()
	newEvent = func() func() {
		id := ids
		ids++
		return func() {
			out = append(out, ran{id, c.Now()})
			b, ok := read()
			if !ok {
				return
			}
			for k := range int(b & 3) {
				d := time.Duration((int(b>>2) + k) % 5)
				if k%2 == 0 {
					c.At(c.Now()+d, newEvent())
				} else {
					c.After(d, newEvent())
				}
			}
		}
	}
	for {
		b, ok := read()
		if !ok {
			break
		}
		arg := int(b >> 2)
		switch b & 3 {
		case 0:
			t := c.Now()
			for range arg%8 + 1 {
				g, ok := read()
				if !ok {
					break
				}
				t += time.Duration(g % 4)
				c.At(t, newEvent())
			}
		case 1:
			c.At(c.Now()+time.Duration(arg), newEvent())
		case 2:
			for range arg + 1 {
				c.Step()
			}
		case 3:
			if arg < 8 {
				c.Reset()
				out = append(out, ran{-1, c.Now()})
			} else {
				for c.Step() {
				}
			}
		}
	}
	for c.Step() {
	}
	return out
}

// FuzzEngineOrder is a differential of Engine against refClock: every
// schedule — in-order pre-loads, out-of-order inserts, ties, events
// scheduled from inside callbacks and Resets with events pending — runs the
// same events at the same times in the same order on both.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0x1c, 0, 1, 2, 3, 0, 1, 2, 3, 0x0b})
	f.Add([]byte{0x1c, 3, 3, 3, 3, 3, 3, 3, 3, 0x05, 0x09, 0x01, 0x06, 0x23})
	f.Add([]byte{0x0c, 0, 0, 0, 0x11, 0x0a, 0x03, 0x0c, 1, 1, 1, 0x23})
	f.Add([]byte{0x1c, 1, 2, 1, 2, 1, 2, 1, 2, 0x02, 0x07, 0x0b, 0x13, 0x1f, 0x03, 0x02})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			return
		}
		got := play(New(), prog)
		want := play(&refClock{}, prog)
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("run %d: engine ran event %d at %v, reference event %d at %v", i, got[i].id, got[i].at, want[i].id, want[i].at)
				}
			}
			t.Fatalf("engine ran %d events, reference %d", len(got), len(want))
		}
	})
}

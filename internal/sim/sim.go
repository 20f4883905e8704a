// Package sim implements the deterministic discrete-event simulation kernel
// that drives all virtual-time experiments. Events are executed in
// (timestamp, insertion-order) order, so identical inputs always produce
// identical executions.
//
// The clock keeps two queues, each in that order on its own. An event
// scheduled at or after the latest pending one in the sorted run joins the
// run's tail: a pre-loaded arrival trace lands there whole and costs an
// append. Every other event — in practice the in-flight stage and link
// completions — goes to a 4-ary heap that stays about as deep as the
// pipeline. Step runs the earlier of the two heads under the one (at, seq)
// rule, so which queue an event waited in never changes when it runs.
package sim

import (
	"time"
)

// Engine is a discrete-event simulator with a virtual clock.
// The zero value is ready to use. Engine is not safe for concurrent use;
// the simulation model is single-threaded by design. (Concurrency lives a
// level up: independent Engines — one per experiment grid cell — run in
// parallel, see internal/experiments.RunGrid.)
type Engine struct {
	now    time.Duration
	sorted sortedRun // events scheduled in (at, seq) order
	events eventHeap // events scheduled out of it
	seq    uint64
	ran    uint64
}

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// before reports whether a executes ahead of b: earlier timestamp first,
// insertion order (seq) breaking ties FIFO.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// sortedRun is an append-only FIFO of events that arrived in (at, seq)
// order: a[head:] is pending, a[:head] consumed and cleared. It compacts in
// place once half its full array is a consumed prefix, so a run that never
// drains holds at most about twice its pending events.
type sortedRun struct {
	a    []event
	head int
}

func (q *sortedRun) len() int { return len(q.a) - q.head }

// accepts reports whether an event at t may join the tail: its seq is the
// newest, so only its timestamp can break the order.
func (q *sortedRun) accepts(t time.Duration) bool {
	return len(q.a) == 0 || t >= q.a[len(q.a)-1].at
}

func (q *sortedRun) push(e event) {
	if len(q.a) == cap(q.a) && 2*q.head >= len(q.a) && q.head > 0 {
		n := copy(q.a, q.a[q.head:])
		clear(q.a[n:]) // the moved events' old slots
		q.a, q.head = q.a[:n], 0
	}
	q.a = append(q.a, e)
}

func (q *sortedRun) pop() event {
	e := q.a[q.head]
	q.a[q.head] = event{} // release the closure so it can be collected
	if q.head++; q.head == len(q.a) {
		q.a, q.head = q.a[:0], 0
	}
	return e
}

func (q *sortedRun) reset() {
	clear(q.a[q.head:])
	q.a, q.head = q.a[:0], 0
}

// eventHeap is a monomorphic 4-ary min-heap of events: the ones scheduled
// out of order, which a pipeline keeps few of. Compared with
// container/heap it avoids boxing every event into an interface{} on Push
// (one allocation per scheduled event on the simulator's hottest path) and
// the 4-ary layout halves the tree depth, trading slightly wider sift-down
// scans — which stay inside one cache line of contiguous events — for fewer
// levels touched per operation.
type eventHeap struct {
	a []event
}

// heapArity is the heap's branching factor.
const heapArity = 4

func (h *eventHeap) len() int { return len(h.a) }

func (h *eventHeap) push(e event) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !h.a[i].before(h.a[p]) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	n := len(h.a) - 1
	root := h.a[0]
	h.a[0] = h.a[n]
	h.a[n] = event{} // release the closure so it can be collected
	h.a = h.a[:n]
	i := 0
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		end := c + heapArity
		if end > n {
			end = n
		}
		min := c
		for k := c + 1; k < end; k++ {
			if h.a[k].before(h.a[min]) {
				min = k
			}
		}
		if !h.a[min].before(h.a[i]) {
			break
		}
		h.a[i], h.a[min] = h.a[min], h.a[i]
		i = min
	}
	return root
}

// reset empties the heap, keeping the allocated capacity but dropping all
// closure references.
func (h *eventHeap) reset() {
	clear(h.a)
	h.a = h.a[:0]
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Executed returns the total number of events run so far.
func (e *Engine) Executed() uint64 { return e.ran }

// Reset rewinds the engine to the zero state — clock at zero, no pending
// events, counters cleared — while keeping both queues' allocated capacity,
// so benchmarks and pooled simulations can reuse one Engine across runs
// without re-growing them.
func (e *Engine) Reset() {
	e.sorted.reset()
	e.events.reset()
	e.now = 0
	e.seq = 0
	e.ran = 0
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: that is always a model bug.
func (e *Engine) At(t time.Duration, fn func()) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	if e.sorted.accepts(t) {
		e.sorted.push(event{at: t, seq: e.seq, fn: fn})
	} else {
		e.events.push(event{at: t, seq: e.seq, fn: fn})
	}
}

// After schedules fn to run d after the current virtual time. A negative d
// panics.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		panic("sim: After with negative delay")
	}
	e.At(e.now+d, fn)
}

// Step executes the next event, advancing the clock to its timestamp.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	var ev event
	switch {
	case e.sorted.len() > 0 && (e.events.len() == 0 || e.sorted.a[e.sorted.head].before(e.events.a[0])):
		ev = e.sorted.pop()
	case e.events.len() > 0:
		ev = e.events.pop()
	default:
		return false
	}
	e.now = ev.at
	e.ran++
	ev.fn()
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

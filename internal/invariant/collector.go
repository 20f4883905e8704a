package invariant

import (
	"sync"

	"gllm/internal/engine"
	"gllm/internal/sched"
)

// Collector fans one checker out per scheduler pool and aggregates their
// results. Its Observer method matches engine.Config.Observer, so enabling
// full invariant checking on any engine is one assignment:
//
//	col := invariant.NewCollector()
//	cfg.Observer = col.Observer
//
// The mutex only guards checker registration: experiment grids build many
// engines concurrently, but each checker is driven by a single event loop.
type Collector struct {
	mu       sync.Mutex
	checkers []*Checker
}

// NewCollector builds an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Observer builds a checker for the pool and registers it.
func (c *Collector) Observer(p *sched.Pool, s sched.Scheduler) engine.BatchObserver {
	chk := New(p, s)
	c.mu.Lock()
	c.checkers = append(c.checkers, chk)
	c.mu.Unlock()
	return chk
}

// Checkers returns the registered checkers (one per pool).
func (c *Collector) Checkers() []*Checker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Checker(nil), c.checkers...)
}

// Cycles sums audited hook invocations across all checkers.
func (c *Collector) Cycles() int64 {
	var n int64
	for _, chk := range c.Checkers() {
		n += chk.Cycles()
	}
	return n
}

// Violations concatenates all checkers' violations.
func (c *Collector) Violations() []Violation {
	var out []Violation
	for _, chk := range c.Checkers() {
		out = append(out, chk.Violations()...)
	}
	return out
}

// Err returns the first violation across all checkers, or nil.
func (c *Collector) Err() error {
	for _, chk := range c.Checkers() {
		if err := chk.Err(); err != nil {
			return err
		}
	}
	return nil
}

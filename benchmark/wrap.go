package main

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gllm/internal/cluster"
	"gllm/internal/metrics"
	gllmrt "gllm/internal/runtime"
	"gllm/internal/sched"
	"gllm/internal/server"
)

// Layers are measured from outside: every wrapper below implements an
// interface the program already accepts, times the call it forwards, and
// records a span for one request in sampleEvery.

// sampleEvery is the span sampling stride: request IDs (and scheduler
// calls) divisible by it keep their spans.
const sampleEvery = 64

// span is one recorded interval. Spans of one request share Req; Parent
// names the enclosing span, so self time = duration − children.
type span struct {
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Layer counters of a traced run, indexed below.
const (
	schedCalls    = iota
	schedNs       // wall time inside Scheduler.Schedule
	schedEmpty    // empty batches
	schedTokens   // over non-empty batches
	schedTokensSq // for the batch-size variance
	backendCalls  // server.Backend.Submit
	backendNs
	engineCalls // cluster.Engine.SubmitBatchedSpec
	engineNs
	pickCalls // cluster.Policy.Pick
	pickNs
	groupPicks // picks for a prefix group seen before ...
	homeHits   // ... that stayed on its last replica
	numCounters
)

// layerCounts is a snapshot of the counters.
type layerCounts [numCounters]int64

func (a layerCounts) sub(b layerCounts) layerCounts {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// tracer holds one traced run's spans (in memory until the run ends) and
// its layer counters. Safe for concurrent use.
type tracer struct {
	origin time.Time
	n      [numCounters]atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) sampled(id uint64) bool { return id != 0 && id%sampleEvery == 0 }

func (t *tracer) add(req uint64, name, parent string, start, end time.Time) {
	s := span{Req: req, Name: name, Parent: parent,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed counts one wrapped call and its wall time.
func (t *tracer) timed(calls, ns int, start, end time.Time) {
	t.n[calls].Add(1)
	t.n[ns].Add(int64(end.Sub(start)))
}

func (t *tracer) counts() layerCounts {
	var c layerCounts
	for i := range c {
		c[i] = t.n[i].Load()
	}
	return c
}

// writeFile writes the spans as one JSON document.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		SampleEvery int    `json:"sample_every"`
		Spans       []span `json:"spans"`
	}{sampleEvery, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedScheduler decorates a sched.Scheduler: it times every Schedule call
// and records the batch's token count (the paper's Fig. 1 volatility). Name
// is delegated so reports are unchanged.
type timedScheduler struct {
	inner sched.Scheduler
	tr    *tracer
}

func (s timedScheduler) Name() string { return s.inner.Name() }

func (s timedScheduler) Schedule(p *sched.Pool, now time.Duration) *sched.Batch {
	t0 := time.Now()
	b := s.inner.Schedule(p, now)
	t1 := time.Now()
	s.tr.n[schedNs].Add(int64(t1.Sub(t0)))
	if n := s.tr.n[schedCalls].Add(1); n%sampleEvery == 0 {
		s.tr.add(0, "sched.schedule", "", t0, t1)
	}
	if b.Empty() {
		s.tr.n[schedEmpty].Add(1)
	} else {
		n := int64(b.Tokens())
		s.tr.n[schedTokens].Add(n)
		s.tr.n[schedTokensSq].Add(n * n)
	}
	return b
}

// timedBackend decorates a server.Backend around Submit.
type timedBackend struct {
	server.Backend
	tr *tracer
}

func (b timedBackend) Submit(ctx context.Context, req server.SubmitRequest) (*gllmrt.Handle, error) {
	t0 := time.Now()
	h, err := b.Backend.Submit(ctx, req)
	t1 := time.Now()
	b.tr.timed(backendCalls, backendNs, t0, t1)
	if id := uint64(req.Trace); b.tr.sampled(id) {
		b.tr.add(id, "backend.submit", "server.serve", t0, t1)
	}
	return h, err
}

// timedEngine decorates a cluster.Engine around SubmitBatchedSpec — the
// replica-side submit the router's own time is measured against.
type timedEngine struct {
	cluster.Engine
	tr *tracer
}

func (e timedEngine) SubmitBatchedSpec(ctx context.Context, spec gllmrt.SubmitSpec) (*gllmrt.Handle, error) {
	t0 := time.Now()
	h, err := e.Engine.SubmitBatchedSpec(ctx, spec)
	t1 := time.Now()
	e.tr.timed(engineCalls, engineNs, t0, t1)
	if id := uint64(spec.Trace); e.tr.sampled(id) {
		e.tr.add(id, "replica.submit", "backend.submit", t0, t1)
	}
	return h, err
}

// timedPolicy decorates a cluster.Policy around Pick and remembers each
// prefix group's last replica, so it can count follow-ups that stayed home.
type timedPolicy struct {
	inner cluster.Policy
	tr    *tracer

	mu   sync.Mutex
	home map[int64]string
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Pick(req cluster.Request, cands []*cluster.Replica) int {
	t0 := time.Now()
	idx := p.inner.Pick(req, cands)
	t1 := time.Now()
	p.tr.timed(pickCalls, pickNs, t0, t1)
	if id := uint64(req.Trace); p.tr.sampled(id) {
		p.tr.add(id, "cluster.pick", "backend.submit", t0, t1)
	}
	if req.PrefixGroup != 0 && idx >= 0 && idx < len(cands) {
		p.mu.Lock()
		if prev, ok := p.home[req.PrefixGroup]; ok {
			p.tr.n[groupPicks].Add(1)
			if prev == cands[idx].ID {
				p.tr.n[homeHits].Add(1)
			}
		}
		p.home[req.PrefixGroup] = cands[idx].ID
		p.mu.Unlock()
	}
	return idx
}

// runtimeBackend adapts one runtime to server.Backend, as server.New does
// internally; the traced run needs its own so timedBackend can wrap it.
type runtimeBackend struct{ rt *gllmrt.Runtime }

func (b runtimeBackend) Submit(ctx context.Context, req server.SubmitRequest) (*gllmrt.Handle, error) {
	return b.rt.SubmitBatchedSpec(ctx, gllmrt.SubmitSpec{
		PromptLen: req.PromptLen, MaxTokens: req.MaxTokens,
		PrefixGroup: req.PrefixGroup, SharedPrefixLen: req.SharedPrefixLen,
		Trace: req.Trace,
	})
}
func (b runtimeBackend) Stats() gllmrt.Snapshot { return b.rt.Stats() }
func (b runtimeBackend) Scrape() metrics.Scrape { return b.rt.Metrics().Scrape() }

// routerBackend adapts a cluster router to server.Backend, as
// cmd/gllm-cluster's clusterBackend does.
type routerBackend struct{ r *cluster.Router }

func (b routerBackend) Submit(ctx context.Context, req server.SubmitRequest) (*gllmrt.Handle, error) {
	h, _, err := b.r.Submit(ctx, cluster.Request{
		PromptLen: req.PromptLen, MaxTokens: req.MaxTokens,
		PrefixGroup: req.PrefixGroup, SharedPrefixLen: req.SharedPrefixLen,
		Trace: req.Trace,
	})
	return h, err
}
func (b routerBackend) Stats() gllmrt.Snapshot { return b.r.Stats() }
func (b routerBackend) Scrape() metrics.Scrape { return b.r.Scrape() }

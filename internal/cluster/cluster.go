// Package cluster implements the layer above a hardened single-node
// runtime: a router fronting N in-process replicas, the load-balancer-over-
// replicas architecture the serving system needs before it can face
// "millions of users".
//
// Each replica is a full runtime.Runtime — its own driver, priced
// pipeline, KV cache, admission control, and health surface. The router:
//
//   - routes every submission through a pluggable Policy (random,
//     round-robin, least-KV-pressure, prefix-affinity — see policy.go),
//     consulting each replica's lightweight Pressure view;
//   - consumes the replicas' existing backpressure and health surfaces:
//     replicas whose health is not "ok" (watchdog degradation, draining,
//     stopped) are never routed to, and runtime.ErrQueueFull rejections
//     are retried on the next pick with capped, jittered exponential
//     backoff that honors the replica's Retry-After hint;
//   - supports drain/replace without dropping in-flight streams: Drain
//     marks a replica unroutable and gracefully shuts it down — handles
//     already streaming from it keep delivering until their generations
//     complete — while new work flows to the remaining replicas.
//
// The router is deliberately not in any token hot path: it touches a
// request once at submission, and tokens then stream directly from the
// owning replica's driver to the consumer through the zero-alloc slab
// path.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gllm/internal/metrics"
	"gllm/internal/obs"
	"gllm/internal/runtime"
	"gllm/internal/stats"
)

// Engine is the per-replica runtime surface the router consumes. A
// *runtime.Runtime implements it; tests substitute fault-injecting fakes.
type Engine interface {
	SubmitBatchedSpec(ctx context.Context, spec runtime.SubmitSpec) (*runtime.Handle, error)
	MatchPrefix(group int64, maxTokens int) int
	Pressure() runtime.Pressure
	Stats() runtime.Snapshot
	Metrics() *metrics.Live
	Shutdown(ctx context.Context) error
	Close() error
}

// Request is one generation to route — the runtime's own submission spec,
// handed unchanged to the chosen replica. The router reads its
// conversation identity (PrefixGroup/SharedPrefixLen) for prefix-affinity
// routing and records its pick/backoff attempts under a non-zero Trace.
type Request = runtime.SubmitSpec

// Replica wraps one engine with routing state and counters.
type Replica struct {
	// ID names the replica in admin surfaces.
	ID string

	eng      Engine
	draining atomic.Bool

	routed  atomic.Int64 // successful submissions routed here
	rejects atomic.Int64 // ErrQueueFull rejections observed here
}

// Engine returns the wrapped engine.
func (r *Replica) Engine() Engine { return r.eng }

// Pressure returns the replica's lightweight load view.
func (r *Replica) Pressure() runtime.Pressure { return r.eng.Pressure() }

// Stats returns the replica's full snapshot.
func (r *Replica) Stats() runtime.Snapshot { return r.eng.Stats() }

// Draining reports whether the replica has been marked unroutable.
func (r *Replica) Draining() bool { return r.draining.Load() }

// Routed returns how many submissions this replica accepted.
func (r *Replica) Routed() int64 { return r.routed.Load() }

// Rejects returns how many ErrQueueFull rejections this replica returned.
func (r *Replica) Rejects() int64 { return r.rejects.Load() }

// routable reports whether new work may be sent here: not draining and
// the replica's own health surface says "ok" (a degraded, draining, or
// stopped replica is exactly what /healthz tells load balancers to skip).
func (r *Replica) routable() bool {
	return !r.draining.Load() && r.eng.Pressure().Health == runtime.HealthOK
}

// ErrNoReplica is returned when no routable replica exists (all drained,
// degraded, or removed). It wraps runtime.ErrQueueFull deliberately: to a
// client this is backpressure — shed load and retry — so HTTP frontends
// map it to 429 like any other saturation signal.
var ErrNoReplica = fmt.Errorf("cluster: no routable replica: %w", runtime.ErrQueueFull)

// RetryPolicy bounds the router's retry-on-429 behavior.
type RetryPolicy struct {
	// MaxAttempts is the total number of submission attempts (default 4,
	// which a value below 1 also gets).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: attempt i waits
	// BaseDelay<<i before re-picking (default 5ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential component (default 1s). A larger
	// replica Retry-After hint overrides the cap — the hint is honored.
	MaxDelay time.Duration
	// Budget bounds the total time Submit may spend across attempts and
	// backoff sleeps (default 10s). When the next sleep would exceed it,
	// Submit gives up and surfaces the terminal error.
	Budget time.Duration
	// HonorRetryAfter raises each backoff to at least the rejecting
	// replica's RetryAfterHint (default true via Config; the experiment
	// disables it to keep compressed-time runs honest).
	HonorRetryAfter bool
}

func (rp *RetryPolicy) applyDefaults() {
	if rp.MaxAttempts < 1 {
		rp.MaxAttempts = 4
	}
	if rp.BaseDelay == 0 {
		rp.BaseDelay = 5 * time.Millisecond
	}
	if rp.MaxDelay == 0 {
		rp.MaxDelay = time.Second
	}
	if rp.Budget == 0 {
		rp.Budget = 10 * time.Second
	}
}

// Clock abstracts time for the retry loop so backoff is testable without
// wall-clock sleeps.
type Clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx is done (returning ctx.Err()).
	Sleep(ctx context.Context, d time.Duration) error
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }
func (realClock) Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Config describes a router.
type Config struct {
	// Policy picks the replica for each request (default NewLeastKV()).
	Policy Policy
	// Retry bounds the retry-on-429 loop. HonorRetryAfter defaults to
	// true when the whole struct is zero.
	Retry RetryPolicy
	// Clock abstracts time (default wall clock).
	Clock Clock
	// Seed feeds the backoff jitter RNG (deterministic per seed).
	Seed uint64
	// Logger, when non-nil, receives routing lifecycle logs.
	Logger *slog.Logger
	// ReqSpans, when non-nil, records router-side request spans (one pick
	// span per routing attempt, one backoff span per retry sleep) for
	// traced submissions.
	ReqSpans *obs.ReqRecorder
}

// Router fronts a mutable set of replicas.
type Router struct {
	policy Policy
	retry  RetryPolicy
	clock  Clock
	logger *slog.Logger

	jmu    sync.Mutex
	jitter *stats.RNG

	mu       sync.RWMutex
	replicas []*Replica
	retired  []*Replica // drained/removed: kept for audits & monotone metrics

	gaveUp   atomic.Int64 // submissions that exhausted the retry budget
	drains   atomic.Int64 // Drain calls (replica lifecycle events)
	replaces atomic.Int64 // Replace calls

	reqSpans *obs.ReqRecorder

	// Router-level observability, off the token hot path (touched once per
	// retried attempt): per-reason retry counters and a histogram of actual
	// backoff sleeps. Accepted submissions are counted once, on the
	// replica (Replica.Routed).
	omu     sync.Mutex
	retries map[string]int64 // retried attempts by reason (queue_full, …)
	backoff *metrics.Hist    // backoff sleep durations, seconds
}

// New builds a router. Replicas are added with Add.
func New(cfg Config) *Router {
	if cfg.Policy == nil {
		cfg.Policy = NewLeastKV()
	}
	zero := RetryPolicy{}
	if cfg.Retry == zero {
		cfg.Retry.HonorRetryAfter = true
	}
	cfg.Retry.applyDefaults()
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	return &Router{
		policy:   cfg.Policy,
		retry:    cfg.Retry,
		clock:    cfg.Clock,
		logger:   cfg.Logger,
		jitter:   stats.NewRNG(cfg.Seed ^ 0x726f75746572), // "router"
		reqSpans: cfg.ReqSpans,
		retries:  make(map[string]int64),
		backoff:  metrics.NewHist(metrics.DefaultLatencyBuckets),
	}
}

// Policy returns the routing policy in use.
func (c *Router) Policy() Policy { return c.policy }

// Add registers a replica under a unique ID.
func (c *Router) Add(id string, eng Engine) (*Replica, error) {
	if id == "" || eng == nil {
		return nil, fmt.Errorf("cluster: Add(%q, %v)", id, eng)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.replicas {
		if r.ID == id {
			return nil, fmt.Errorf("cluster: duplicate replica id %q", id)
		}
	}
	rep := &Replica{ID: id, eng: eng}
	// Appending writes only past the length of every snapshot pick holds.
	c.replicas = append(c.replicas, rep)
	c.logEvent(slog.LevelInfo, "replica added", "id", id, "replicas", len(c.replicas))
	return rep, nil
}

// Replicas returns the active replicas in registration order.
func (c *Router) Replicas() []*Replica {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*Replica(nil), c.replicas...)
}

// Retired returns drained/removed replicas (kept for their counters).
func (c *Router) Retired() []*Replica {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*Replica(nil), c.retired...)
}

// Replica returns the active replica with the given ID, or nil.
func (c *Router) Replica(id string) *Replica {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, r := range c.replicas {
		if r.ID == id {
			return r
		}
	}
	return nil
}

// retire moves a replica from the active set to the retired list.
func (c *Router) retire(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, r := range c.replicas {
		if r.ID == id {
			// Copy on write: a pick may still be reading the old list.
			c.replicas = append(c.replicas[:i:i], c.replicas[i+1:]...)
			c.retired = append(c.retired, r)
			return
		}
	}
}

// ErrUnknownReplica is returned by Drain and Replace when the id names no
// active replica, so admin surfaces can tell "not found" from a drain that
// found its replica and ran out of time.
var ErrUnknownReplica = errors.New("cluster: no replica")

func unknownReplica(id string) error { return fmt.Errorf("%w %q", ErrUnknownReplica, id) }

// Drain takes a replica out of rotation and gracefully shuts it down:
// new submissions stop flowing to it immediately, while its queued and
// in-flight generations keep streaming to their consumers until they
// complete (or ctx expires, aborting the remainder — runtime.Shutdown
// semantics). The replica is then retired. Safe to call concurrently
// with Submit.
func (c *Router) Drain(ctx context.Context, id string) error {
	rep := c.Replica(id)
	if rep == nil {
		return unknownReplica(id)
	}
	rep.draining.Store(true)
	c.drains.Add(1)
	c.logEvent(slog.LevelInfo, "replica draining", "id", id)
	err := rep.eng.Shutdown(ctx)
	c.retire(id)
	c.logEvent(slog.LevelInfo, "replica drained", "id", id, "err", err)
	return err
}

// Replace adds a fresh replica and then drains an old one — the
// zero-downtime rolling-update step. In-flight streams on the old
// replica complete; new work immediately becomes routable to the
// replacement. An unknown oldID fails before anything is registered: the
// replica set is untouched and eng is not retained. A non-nil replica
// returned with an error means the replacement is registered and serving;
// the error is the old replica's drain (retired, but not within ctx).
func (c *Router) Replace(ctx context.Context, oldID, newID string, eng Engine) (*Replica, error) {
	if c.Replica(oldID) == nil {
		return nil, unknownReplica(oldID)
	}
	rep, err := c.Add(newID, eng)
	if err != nil {
		return nil, err
	}
	c.replaces.Add(1)
	return rep, c.Drain(ctx, oldID)
}

// Shutdown drains every active replica concurrently (graceful; bounded by
// ctx) and retires them. The first error is returned.
func (c *Router) Shutdown(ctx context.Context) error {
	reps := c.Replicas()
	errs := make(chan error, len(reps))
	for _, rep := range reps {
		go func(r *Replica) { errs <- c.Drain(ctx, r.ID) }(rep)
	}
	var first error
	for range reps {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops every replica immediately (in-flight work aborted).
func (c *Router) Close() error {
	var first error
	for _, rep := range append(c.Replicas(), c.Retired()...) {
		rep.draining.Store(true)
		if err := rep.eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, rep := range c.Replicas() {
		c.retire(rep.ID)
	}
	return first
}

// Retries429 counts rejected submission attempts that were retried: the
// sum of the per-reason retry counters.
func (c *Router) Retries429() int64 {
	c.omu.Lock()
	defer c.omu.Unlock()
	var n int64
	for _, v := range c.retries {
		n += v
	}
	return n
}

// GaveUp counts submissions that exhausted the retry budget.
func (c *Router) GaveUp() int64 { return c.gaveUp.Load() }

// pick snapshots the routable replicas and asks the policy to choose. The
// active list is copy-on-write, so while every replica is routable the
// policy reads the list itself and a pick allocates nothing; only a pick
// that must skip a draining or unhealthy replica filters into a copy.
func (c *Router) pick(req Request) (*Replica, error) {
	c.mu.RLock()
	all := c.replicas
	c.mu.RUnlock()
	cands := slices.Clip(all)
	for i, r := range all {
		if !r.routable() {
			cands = slices.Clip(all[:i])
			for _, r := range all[i+1:] {
				if r.routable() {
					cands = append(cands, r)
				}
			}
			break
		}
	}
	if len(cands) == 0 {
		return nil, ErrNoReplica
	}
	idx := c.policy.Pick(req, cands)
	if idx < 0 || idx >= len(cands) {
		return nil, fmt.Errorf("cluster: policy %s picked %d of %d", c.policy.Name(), idx, len(cands))
	}
	return cands[idx], nil
}

// retryable classifies errors worth re-picking for: backpressure
// (ErrQueueFull, and ErrNoReplica through it) always; ErrStopped too,
// because it means the picked replica lost a drain race — another replica
// can still serve the request.
func retryable(err error) bool {
	return errors.Is(err, runtime.ErrQueueFull) || errors.Is(err, runtime.ErrStopped)
}

// backoffDelay computes the sleep before attempt+1: exponential from
// BaseDelay, capped at MaxDelay, raised to the rejecting replica's
// Retry-After hint when honored, plus bounded jitter in [0, base/2).
func (c *Router) backoffDelay(attempt int, hint time.Duration) time.Duration {
	base := c.retry.BaseDelay << uint(attempt)
	if base > c.retry.MaxDelay || base <= 0 { // << overflow guard
		base = c.retry.MaxDelay
	}
	if c.retry.HonorRetryAfter && hint > base {
		base = hint
	}
	c.jmu.Lock()
	j := time.Duration(c.jitter.Float64() * float64(base) / 2)
	c.jmu.Unlock()
	return base + j
}

// retryReason names a retryable submission error for the per-reason retry
// counters and backoff spans. ErrNoReplica is checked first — it wraps
// ErrQueueFull deliberately, so the generic check would shadow it.
func retryReason(err error) string {
	switch {
	case errors.Is(err, ErrNoReplica):
		return "no_replica"
	case errors.Is(err, runtime.ErrQueueFull):
		return "queue_full"
	case errors.Is(err, runtime.ErrStopped):
		return "stopped"
	default:
		return "other"
	}
}

// noteRetry counts one retried attempt under its reason.
func (c *Router) noteRetry(reason string) {
	c.omu.Lock()
	c.retries[reason]++
	c.omu.Unlock()
}

// recordSpan records one router-side request span (no-op when the router
// has no recorder or the request is untraced). Spans use wall-clock time
// (c.reqSpans.Now), not the injected retry Clock: they are merged against
// other processes' recorders, which only share the wall clock.
func (c *Router) recordSpan(trace obs.TraceID, name, detail string, attempt int, start, end time.Time) {
	c.reqSpans.Record(trace, name, obs.SideRouter, detail, attempt, start, end)
}

// Submit routes a request to a replica and returns its streaming handle
// (batched slab delivery; drain with Handle.Next) plus the replica that
// accepted it. Saturation (429-class) failures are retried on fresh picks
// with capped jittered backoff until the retry policy's attempt and time
// budgets are exhausted, at which point the terminal error — wrapping
// runtime.ErrQueueFull — is surfaced. Traced requests get one pick span
// per attempt (detail = replica ID, or "none" when no replica was
// routable) and one backoff span per retry sleep (detail = reason).
func (c *Router) Submit(ctx context.Context, req Request) (*runtime.Handle, *Replica, error) {
	start := c.clock.Now()
	var lastErr error
	attempts := 0
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		attempts++
		var hint time.Duration
		pickStart := c.reqSpans.Now(req.Trace)
		rep, err := c.pick(req)
		if err == nil {
			var h *runtime.Handle
			h, err = rep.eng.SubmitBatchedSpec(ctx, req)
			c.recordSpan(req.Trace, obs.SpanPick, rep.ID, attempt, pickStart, c.reqSpans.Now(req.Trace))
			if err == nil {
				rep.routed.Add(1)
				return h, rep, nil
			}
			if !retryable(err) {
				return nil, nil, err
			}
			if errors.Is(err, runtime.ErrQueueFull) {
				rep.rejects.Add(1)
				hint = rep.Pressure().RetryAfterHint()
			}
		} else {
			c.recordSpan(req.Trace, obs.SpanPick, "none", attempt, pickStart, c.reqSpans.Now(req.Trace))
		}
		lastErr = err
		if attempt == c.retry.MaxAttempts-1 {
			break // no sleep after the final attempt
		}
		delay := c.backoffDelay(attempt, hint)
		if c.clock.Now().Add(delay).Sub(start) > c.retry.Budget {
			break // the sleep would blow the budget: give up now
		}
		reason := retryReason(lastErr)
		c.noteRetry(reason)
		c.backoff.Observe(delay.Seconds())
		sleepStart := c.reqSpans.Now(req.Trace)
		if err := c.clock.Sleep(ctx, delay); err != nil {
			return nil, nil, err
		}
		c.recordSpan(req.Trace, obs.SpanBackoff, reason, attempt, sleepStart, c.reqSpans.Now(req.Trace))
	}
	c.gaveUp.Add(1)
	c.logEvent(slog.LevelWarn, "submission gave up",
		"attempts", attempts, "elapsed", c.clock.Now().Sub(start), "err", lastErr)
	return nil, nil, fmt.Errorf("cluster: gave up after %d attempts over %v: %w",
		attempts, c.clock.Now().Sub(start), lastErr)
}

// Stats aggregates the cluster into one runtime.Snapshot (the shape the
// HTTP frontend's /stats and /metrics render): counters are summed over
// active and retired replicas, KV gauges are capacity-weighted, the
// bubble rate is each replica's weighted by its stages × uptime, and
// Health reports "ok" while at least one replica is routable.
func (c *Router) Stats() runtime.Snapshot {
	var agg runtime.Snapshot
	var bubble, stageSeconds float64
	routable := 0
	all := append(c.Replicas(), c.Retired()...)
	for _, rep := range all {
		st := rep.eng.Stats()
		agg.Iterations += st.Iterations
		agg.InFlight += st.InFlight
		agg.WaitingPrefill += st.WaitingPrefill
		agg.RunningDecode += st.RunningDecode
		agg.Finished += st.Finished
		agg.Preemptions += st.Preemptions
		agg.Resident += st.Resident
		agg.Cancelled += st.Cancelled
		agg.Rejected += st.Rejected
		agg.KVTotalBlocks += st.KVTotalBlocks
		agg.KVFreeBlocks += st.KVFreeBlocks
		agg.KVCachedBlocks += st.KVCachedBlocks
		agg.PrefixHits += st.PrefixHits
		agg.PrefixHitTokens += st.PrefixHitTokens
		if st.Uptime > agg.Uptime {
			agg.Uptime = st.Uptime
		}
		w := float64(len(st.StageBusySeconds)) * st.Uptime.Seconds()
		bubble += st.BubbleRate * w
		stageSeconds += w
		if rep.routable() {
			routable++
		}
	}
	if agg.KVTotalBlocks > 0 {
		agg.KVFreeRate = float64(agg.KVFreeBlocks) / float64(agg.KVTotalBlocks)
	} else {
		agg.KVFreeRate = 1
	}
	if stageSeconds > 0 {
		agg.BubbleRate = bubble / stageSeconds
	}
	switch {
	case routable > 0:
		agg.Health = runtime.HealthOK
	case len(c.Replicas()) > 0:
		agg.Health = runtime.HealthDraining
	default:
		agg.Health = runtime.HealthStopped
	}
	return agg
}

// Scrape merges every replica's incremental metric state (active and
// retired, so counters stay monotone across drains) — the O(buckets)
// feed for the frontend's aggregate /metrics.
func (c *Router) Scrape() metrics.Scrape {
	var out metrics.Scrape
	for _, rep := range append(c.Replicas(), c.Retired()...) {
		out.Merge(rep.eng.Metrics().Scrape())
	}
	return out
}

// RouterStats is the router-level observability snapshot: retry/backoff
// behavior, pick distribution, lifecycle events, and per-replica probe
// state — everything the federated /metrics renders as gllm_router_*
// series and the admin surface reports alongside replica rows.
type RouterStats struct {
	Policy     string                `json:"policy"`
	Retries    int64                 `json:"retries"`
	GaveUp     int64                 `json:"gave_up"`
	Drains     int64                 `json:"drains"`
	Replaces   int64                 `json:"replaces"`
	ByReason   map[string]int64      `json:"retries_by_reason,omitempty"`
	Picks      map[string]int64      `json:"picks,omitempty"`
	Backoff    metrics.HistSnapshot  `json:"-"`
	BackoffSum float64               `json:"backoff_seconds_sum"`
	Probes     map[string]ProbeState `json:"probes,omitempty"`
}

// RouterStats snapshots the router-level counters. Picks sums Routed over
// the active and retired replicas of each ID, omitting zeros. Probe states
// are gathered from replicas whose engines expose one (remote transports).
func (c *Router) RouterStats() RouterStats {
	st := RouterStats{
		Policy:   c.policy.Name(),
		GaveUp:   c.gaveUp.Load(),
		Drains:   c.drains.Load(),
		Replaces: c.replaces.Load(),
		ByReason: make(map[string]int64),
		Picks:    make(map[string]int64),
		Backoff:  c.backoff.Snapshot(),
	}
	st.BackoffSum = st.Backoff.Sum
	c.omu.Lock()
	for k, v := range c.retries {
		st.ByReason[k] = v
		st.Retries += v
	}
	c.omu.Unlock()
	for _, rep := range append(c.Replicas(), c.Retired()...) {
		if n := rep.Routed(); n > 0 {
			st.Picks[rep.ID] += n
		}
		if ps, ok := rep.ProbeState(); ok {
			if st.Probes == nil {
				st.Probes = make(map[string]ProbeState)
			}
			st.Probes[rep.ID] = ps
		}
	}
	return st
}

// ProbeStater is the optional Engine extension exposing remote health-
// probe state (consecutive failures, last transition). In-process
// replicas have no prober and simply don't implement it.
type ProbeStater interface {
	ProbeState() ProbeState
}

// ProbeState reports whether this replica's engine exposes probe state
// (remote transports do) and, if so, its current snapshot.
func (r *Replica) ProbeState() (ProbeState, bool) {
	if ps, ok := r.eng.(ProbeStater); ok {
		return ps.ProbeState(), true
	}
	return ProbeState{}, false
}

func (c *Router) logEvent(level slog.Level, msg string, args ...any) {
	if c.logger != nil {
		c.logger.Log(context.Background(), level, msg, args...)
	}
}

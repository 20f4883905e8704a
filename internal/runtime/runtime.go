// Package runtime implements the gLLM asynchronous serving runtime (§3.3)
// as a real concurrent system: a driver goroutine that owns scheduling and
// the KV cache, one clock goroutine that hands each batch back at its
// priced deadline, and a decoupled frontend (SubmitBatchedSpec returns
// immediately; tokens stream back as pooled per-micro-batch event slabs
// drained with Handle.Next, the zero-alloc steady-state path every frontend
// uses).
//
// The paper's three design principles map directly onto Go concurrency:
//
//  1. Non-blocking pipeline operations — the driver prices a batch's
//     stage windows when it injects it and never sleeps, spin-waits or
//     blocks on emission; it waits only in its one select.
//  2. Decoupled frontend/backend — submitting is safe from any goroutine
//     and communicates with the driver only through a channel.
//  3. Preemptive (dual-phase) metadata scheduling — its effect is priced,
//     not emulated: every batch's windows open with the prep time of the
//     driver's engine.RuntimeModel, as in the simulator's kernel. Async
//     mode pays gLLM's Token Throttling residual, delaying only its own
//     batch; sync mode (the vLLM-like baseline) its whole input
//     preparation, queued on the one driver CPU.
//
// GPU compute is emulated by price: at injection the driver computes each
// stage's execute window and each hop's transfer from the cost model the
// discrete-event engine's pipeline uses, scaled by Config.TimeScale, and
// one clock goroutine hands the batch back when its last window ends (0
// prices nothing, so a batch comes back at once: useful for tests and for
// the fastest-possible serving of synthetic tokens).
//
// # Request lifecycle, shutdown, and backpressure
//
// Every submitted request terminates in exactly one way, and its stream
// always ends afterwards (Handle.Next returns nil) — handles never leak:
//
//   - FinishLength: every requested token was generated (the happy path).
//   - FinishCancelled / FinishTimeout: the submitter's context was
//     cancelled or its deadline expired, or Handle.Cancel was called. The
//     driver aborts the request at the next micro-batch boundary and
//     releases its KV blocks.
//   - FinishShutdown: the runtime was drained or closed before the request
//     completed.
//
// Shutdown has two modes. Shutdown(ctx) drains gracefully: new submissions
// are refused with ErrStopped, but queued AND in-flight work keeps being
// scheduled until it completes; when ctx expires the remainder is aborted
// (FinishShutdown) with properly ended streams. Close aborts immediately,
// cutting priced deadlines short. Both are idempotent and safe to call
// concurrently.
//
// Admission control bounds the work the runtime will buffer: when the
// submit queue is saturated, or the projected KV demand (prompt + output
// tokens summed over every admitted, unfinished request) exceeds
// Config.AdmitKVFactor times the KV capacity, submission fails fast with
// ErrQueueFull instead of queueing unboundedly.
//
// A watchdog goroutine observes driver progress: when micro-batches are in
// flight but none has retired for Config.WatchdogTimeout (e.g. a stalled
// stage, injectable via Config.StageFault), Stats().Health reports
// "degraded" until progress resumes.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gllm/internal/engine"
	"gllm/internal/gpu"
	"gllm/internal/metrics"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/request"
	"gllm/internal/sched"
)

// Config describes a runtime deployment.
type Config struct {
	Model model.Config
	GPU   gpu.Spec
	Topo  network.Topology
	// MemUtil is the KV memory fraction in (0,1] (default 0.9).
	MemUtil   float64
	Scheduler sched.Scheduler
	// Async selects the prep charge of the gLLM dual-phase runtime
	// (engine.GLLMRuntime); false gives the coupled (vLLM-like) baseline's
	// (engine.VLLMRuntime), as engine.Config.Runtime does in the simulator.
	Async bool
	// EnablePrefixCache turns on cross-request KV reuse for submissions
	// that declare a prefix group.
	EnablePrefixCache bool
	// EnableCPP turns on chunked pipeline parallelism for long prompts.
	EnableCPP bool
	// TimeScale converts modeled GPU and driver time into wall-clock
	// windows (e.g. 0.001 = 1000x faster than modeled). Zero prices nothing.
	TimeScale float64
	// QueueDepth bounds the submit channel (default 1024). A full queue
	// rejects submissions with ErrQueueFull.
	QueueDepth int
	// AdmitKVFactor caps the projected KV demand (prompt + output tokens
	// summed over every admitted, unfinished request) at this multiple of
	// the deployment's KV capacity; a submission beyond the cap fails with
	// ErrQueueFull. Default 8: the queue may hold roughly eight cache-fulls
	// of future work. Negative disables KV-headroom admission control.
	AdmitKVFactor float64
	// WatchdogTimeout flags the runtime degraded when micro-batches are in
	// flight but none has retired for this long (wall clock). Default 30s;
	// negative disables the watchdog.
	WatchdogTimeout time.Duration
	// StageFault, when non-nil, is consulted by the driver once per stage
	// of every micro-batch it injects: a positive duration pushes that
	// stage's window start back by that wall-clock time, so the stage stalls
	// and later batches queue behind it. Fault injection for testing the
	// watchdog, degraded health, and shutdown-under-fault paths. It runs on
	// the driver, so it must return and must not block; Close cuts the
	// stalled deadline short.
	StageFault func(stage, seq int) time.Duration
	// Spans, when non-nil, receives per-stage execute/transfer and driver
	// prep spans (wall-clock, relative to runtime start). Start rejects one
	// with fewer stages than the pipeline. Nil costs nothing per micro-batch.
	Spans *obs.Recorder
	// ReqSpans, when non-nil, receives per-request lifecycle spans
	// (queue/prefill/decode, side "replica") for submissions carrying a
	// distributed trace ID. Nil, or an untraced submission, costs one nil
	// check per terminated request.
	ReqSpans *obs.ReqRecorder
	// Logger, when non-nil, receives structured lifecycle logs
	// (admit/reject/abort/drain/degrade). Nil disables logging.
	Logger *slog.Logger

	// observe builds the driver pool's engine.BatchObserver, as
	// engine.Config.Observer does for a simulated pool. Only this package's
	// tests set it: the invariant checker on the live path.
	observe func(*sched.Pool, sched.Scheduler) engine.BatchObserver
}

func (c *Config) applyDefaults() {
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	}
	if c.AdmitKVFactor == 0 {
		c.AdmitKVFactor = 8
	}
	if c.WatchdogTimeout == 0 {
		c.WatchdogTimeout = 30 * time.Second
	}
}

// FinishReason classifies how a request reached its terminal state.
type FinishReason string

// Terminal reasons. Every handle's stream ends with exactly one.
const (
	// FinishLength: every requested output token was generated.
	FinishLength FinishReason = "length"
	// FinishCancelled: the submitter cancelled (context or Handle.Cancel).
	FinishCancelled FinishReason = "cancelled"
	// FinishTimeout: the submitter's context deadline expired.
	FinishTimeout FinishReason = "timeout"
	// FinishShutdown: the runtime drained or closed before completion.
	FinishShutdown FinishReason = "shutdown"
	// FinishDisconnected: the transport carrying a remote replica's stream
	// dropped mid-generation (connection reset, remote process death). Only
	// proxy handles (cluster remote transport) terminate with it.
	FinishDisconnected FinishReason = "disconnected"
)

// Health states reported by Snapshot.Health.
const (
	HealthOK       = "ok"       // serving normally
	HealthDegraded = "degraded" // watchdog: in-flight work is not retiring
	HealthDraining = "draining" // Shutdown in progress
	HealthStopped  = "stopped"  // driver exited
)

// TokenEvent is one generated token streamed back to the submitter.
type TokenEvent struct {
	ReqID    int64
	Index    int // 0-based output token index
	Token    uint64
	Text     string
	Finished bool
	// Reason is set on the terminal event only: FinishLength on the last
	// generated token, or an abort reason on a synthetic, empty-Text
	// terminal event for requests that end early.
	Reason FinishReason
}

// Handle is one submitted request: the consumer drains it with Next, and
// the feeding side (the driver, through request.Owner, or a ProxyFeeder)
// appends to it.
type Handle struct {
	ID int64
	// Events is set only on handles returned by the Submit shim: every
	// event Next would have returned, one at a time, closed after the
	// terminal one. Every other handle delivers through Next.
	Events <-chan TokenEvent

	rt       *Runtime // nil on a proxy handle
	req      *request.Request
	done     chan struct{}
	kvDemand int64
	// reason is written before done closes; readers must wait on done
	// first (FinishReason does).
	reason FinishReason
	// abortReason is the externally requested abort reason (CAS winner
	// sends the handle to cancelCh exactly once).
	abortReason atomic.Pointer[FinishReason]
	// onCancel, set only on proxy handles (NewProxyHandle), receives the
	// abort reason in place of the driver's cancelCh path.
	onCancel func(FinishReason)
	// stopWatch unregisters the submitter context's abort hook; nil when
	// the context can never be cancelled. watched is that context's Done
	// channel: the hook wakes a consumer parked in Next, so Next under it
	// needs no second channel to wait on.
	stopWatch func() bool
	watched   <-chan struct{}

	// Slab delivery: the feeding side appends to pending under dmu — a
	// short critical section, so it never blocks on a slow consumer — and
	// sends on notify only when waiting says the consumer is parked in
	// Next. Clearing the flag under dmu makes that send the one token per
	// park, so notify never holds a stale wake.
	dmu     sync.Mutex
	pending *eventSlab
	dclosed bool
	waiting bool
	notify  chan struct{}
	// cur is the slab most recently returned by Next; the following Next
	// call makes it spare, the slab slab() refills before it takes one from
	// the pool.
	cur   *eventSlab
	spare *eventSlab
}

// Done returns a channel closed when the request reaches a terminal state
// (all tokens emitted, or aborted).
func (h *Handle) Done() <-chan struct{} { return h.done }

// Cancel requests a cooperative abort: the driver removes the request at
// the next micro-batch boundary and releases its KV. Safe to call from any
// goroutine, idempotent, and a no-op once the request is terminal. On a
// proxy handle (no local driver) the abort is delegated to the feeder's
// onCancel hook instead.
func (h *Handle) Cancel() {
	if h.rt == nil {
		h.proxyCancel(FinishCancelled)
		return
	}
	h.rt.requestCancel(h, FinishCancelled)
}

// FinishReason reports how the request terminated. It returns "" until the
// request is terminal (Done fired, which happens before the stream ends).
func (h *Handle) FinishReason() FinishReason {
	select {
	case <-h.done:
		return h.reason
	default:
		return ""
	}
}

// Next returns the next batch of token events. It blocks until the driver
// delivers events, and returns nil when the stream is complete (every
// event, including the terminal one — an aborted request's is synthetic:
// empty Text, the abort reason — has been returned by earlier calls) or
// when ctx is done (check ctx.Err() to distinguish). The returned slice is
// owned by the runtime and valid only until the following Next call, which
// recycles its slab; callers must not retain it. Next must not be called
// concurrently with itself, and panics on a Submit-shim handle, whose pump
// goroutine is already the stream's one consumer.
func (h *Handle) Next(ctx context.Context) []TokenEvent {
	if h.Events != nil {
		panic("runtime: Handle.Next on a Submit handle; range over Events instead")
	}
	return h.next(ctx)
}

// next is Next without the shim check: the Submit shim's pump drains
// through it. It parks only after setting waiting under dmu. Under the
// submit context, or none, it then waits on notify alone: the context's
// hook runs after Done closes, so either the check of Done sees it closed
// or the hook finds the flag set and wakes it.
func (h *Handle) next(ctx context.Context) []TokenEvent {
	var cancelled <-chan struct{}
	if ctx != nil {
		cancelled = ctx.Done()
	}
	h.dmu.Lock()
	if h.cur != nil {
		h.recycle(h.cur)
		h.cur = nil
	}
	for {
		s := h.pending
		h.pending = nil
		if s != nil && len(s.evs) > 0 {
			h.cur = s
			h.dmu.Unlock()
			return s.evs
		}
		if s != nil {
			h.recycle(s) // delivered empty
		}
		if h.dclosed {
			h.dmu.Unlock()
			return nil
		}
		h.waiting = true
		h.dmu.Unlock()
		if cancelled == nil || cancelled == h.watched {
			select {
			case <-cancelled:
				h.unpark()
				return nil
			default:
			}
			<-h.notify
		} else {
			select {
			case <-h.notify:
			case <-cancelled:
				h.unpark()
				return nil
			}
		}
		h.dmu.Lock()
	}
}

// unpark withdraws a consumer that stops waiting without a wake. A cleared
// flag means a feeder took the park and is sending its token: it is
// received here, so the next park starts from an empty notify.
func (h *Handle) unpark() {
	h.dmu.Lock()
	parked := h.waiting
	h.waiting = false
	h.dmu.Unlock()
	if !parked {
		<-h.notify
	}
}

// spareEvents caps the slab an open stream keeps as its spare, at 8 KiB.
// Under load tokens pile up while a consumer waits for a CPU, so slabs grow
// to tens of events: on long_prompt a one-event cap kept 0.04 % of them, 32
// events half, 128 all but 0.1 %. The pool hands out grown slabs anyway.
const spareEvents = 128

// recycle hands back a slab the consumer is done with: it becomes the spare
// of an open stream that has none, unless it grew past spareEvents, and goes
// to the pool otherwise. The caller holds dmu.
func (h *Handle) recycle(s *eventSlab) {
	s.evs = s.evs[:0]
	if cap(s.evs) <= spareEvents && h.spare == nil && !h.dclosed {
		h.spare = s
		return
	}
	slabPool.Put(s)
}

// Snapshot is a point-in-time view of runtime state.
type Snapshot struct {
	Iterations     int
	InFlight       int
	WaitingPrefill int
	RunningDecode  int
	KVFreeRate     float64
	Finished       int
	Preemptions    int
	// Resident counts admitted, unfinished requests (queued or running).
	Resident int
	// Cancelled counts requests aborted before completion (cancellation,
	// timeout, or shutdown).
	Cancelled int
	// Rejected counts submissions refused with ErrQueueFull.
	Rejected int64
	// Health is one of HealthOK, HealthDegraded, HealthDraining,
	// HealthStopped.
	Health string
	// Uptime is the wall-clock time since the runtime started.
	Uptime time.Duration
	// StageBusySeconds is each stage's cumulative priced execute time,
	// booked when a batch is injected (zero when TimeScale is 0).
	StageBusySeconds []float64
	// BubbleRate is the paper's §3 bubble rate, 1 − Σ_s busy_s / (stages
	// × window), over the window max(uptime, last booked window's end).
	BubbleRate float64
	// KV block accounting (same publish cadence as KVFreeRate). After a
	// drain, KVFreeBlocks+KVCachedBlocks == KVTotalBlocks must hold — the
	// cluster audit's cross-replica KV-leak check.
	KVTotalBlocks  int
	KVFreeBlocks   int
	KVCachedBlocks int
	// PrefixHits / PrefixHitTokens count cross-request KV reuse: attaches
	// served from the prefix cache and the tokens they covered.
	PrefixHits      int
	PrefixHitTokens int64
}

// Gauges is the snapshot's half of a /metrics page in the metrics package's
// terms: the one conversion behind the standalone exposition and each
// replica's block of the cluster federation.
func (s Snapshot) Gauges() metrics.Gauges {
	return metrics.Gauges{
		Rejected:             s.Rejected,
		Iterations:           int64(s.Iterations),
		Preemptions:          int64(s.Preemptions),
		StageBusySeconds:     s.StageBusySeconds,
		BubbleRate:           s.BubbleRate,
		KVFreeRate:           s.KVFreeRate,
		RunningDecode:        s.RunningDecode,
		WaitingPrefillTokens: s.WaitingPrefill,
		Resident:             s.Resident,
		Healthy:              s.Health == HealthOK,
		UptimeSeconds:        s.Uptime.Seconds(),
	}
}

// RetryAfterHint derives a client backoff hint from the snapshot's load:
// a 1 s floor, +1 s per eighth of the KV cache in use beyond half, and
// +1 s per 256 resident requests, capped at 30 s. The HTTP frontend sends
// it as Retry-After on 429s and the cluster router honors it when backing
// off a saturated replica.
func (s Snapshot) RetryAfterHint() time.Duration {
	return retryHint(s.KVFreeRate, s.Resident)
}

// RetryAfterHint is Snapshot.RetryAfterHint on the lightweight view.
func (p Pressure) RetryAfterHint() time.Duration {
	return retryHint(p.KVFree, p.Resident)
}

func retryHint(kvFree float64, resident int) time.Duration {
	secs := 1
	if used := 1 - kvFree; used > 0.5 {
		secs += int((used - 0.5) * 8) // up to +4 s as the cache fills
	}
	secs += resident / 256
	if secs > 30 {
		secs = 30
	}
	return time.Duration(secs) * time.Second
}

// Pressure is the lightweight routing view of a runtime: the load signals
// a cluster router consults per candidate replica per request. Unlike
// Stats it allocates nothing (Snapshot builds per-stage slices).
type Pressure struct {
	// KVFree is the last-published free fraction of the KV cache.
	KVFree float64
	// Resident counts admitted, unfinished requests.
	Resident int
	// QueueLen is the instantaneous submit-queue occupancy.
	QueueLen int
	// Health is one of HealthOK, HealthDegraded, HealthDraining,
	// HealthStopped.
	Health string
}

// Runtime is a live serving deployment.
type Runtime struct {
	cfg         Config
	cost        gpu.CostModel
	stageLayers []int
	kvCapacity  int64
	admitLimit  int64 // 0 = KV-headroom admission disabled

	submitCh chan *Handle
	cancelCh chan *Handle
	doneCh   chan *microBatch
	stopCh   chan struct{}
	killCh   chan struct{}
	stopped  chan struct{}
	stopOnce sync.Once
	killOnce sync.Once

	// subMu serializes submission against the driver's final queue sweep:
	// once stopping is set no new submission can enter submitCh, so the
	// sweep provably terminates every outstanding handle.
	subMu    sync.RWMutex
	stopping bool

	// pipeCh carries each injected batch to the clock goroutine, which
	// sends it back on doneCh at its deadline; each holds every batch in
	// flight, so no send blocks.
	pipeCh chan *microBatch

	// collector counts every terminated request by reason: the one source
	// of Snapshot.Finished and Snapshot.Cancelled.
	collector metrics.Live

	// Scalar progress counters are atomics written inline by the driver
	// (and read lock-free by Stats and the watchdog); the pool-derived
	// gauges below are published by the driver only when it is about to
	// block or periodically under sustained load — not on every loop
	// iteration, which used to put a mutex write on the hot path.
	iterations atomic.Int64
	inFlight   atomic.Int64
	resident   atomic.Int64

	// gauges (the Snapshot fields derived from the pool), busy (the
	// stages' Busy) and booked (the end of the last window booked) are the
	// driver's state as it last published it; Stats fills in the rest.
	mu     sync.Mutex
	gauges Snapshot
	busy   []time.Duration
	booked time.Duration

	admittedKV atomic.Int64 // projected KV tokens of admitted, unfinished requests
	rejected   atomic.Int64
	degraded   atomic.Bool
	lastBeat   atomic.Int64 // driver's last scheduling progress, ns since start (monotonic)

	// prefixRuns is the KV cache's residency as the driver last changed it.
	// exited is set once the driver has terminated every handle: health
	// reads "stopped" and MatchPrefix 0 from then on.
	prefixRuns residency
	exited     atomic.Bool

	nextID atomic.Int64
	start  time.Time
}

// residency maps a prefix group to its leading resident tokens, holding an
// entry only while that is non-zero, so it is bounded by the cache, not by
// the traffic. The driver writes it from the KV manager's run hook, at the
// moment a run changes; any goroutine reads it without waiting on the
// driver. Sharded so concurrent readers do not share one lock word.
type residency [16]residencyShard

type residencyShard struct {
	mu   sync.RWMutex
	runs map[int64]int
}

// shard spreads groups, often consecutive ids, over the 16 shards.
func (t *residency) shard(group int64) *residencyShard {
	return &t[uint64(group)*0x9E3779B97F4A7C15>>60]
}

func (t *residency) set(group int64, tokens int) {
	s := t.shard(group)
	s.mu.Lock()
	if tokens == 0 {
		delete(s.runs, group)
	} else {
		if s.runs == nil {
			s.runs = make(map[int64]int)
		}
		s.runs[group] = tokens
	}
	s.mu.Unlock()
}

func (t *residency) get(group int64) int {
	s := t.shard(group)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.runs[group]
}

// eventSlab is a reusable batch of token events: the driver appends a
// request's new tokens once per retired micro-batch, the consumer swaps the
// slab out wholesale via Handle.Next. Pooled so steady-state delivery
// allocates nothing. A new slab has room for one delivery — a decode step
// brings one token per request — and grows by append only while its
// consumer falls behind, so a stream costs what it has in hand.
type eventSlab struct{ evs []TokenEvent }

var slabPool = sync.Pool{New: func() any { return &eventSlab{evs: make([]TokenEvent, 0, 1)} }}

// slab returns the slab the next events are appended to: the pending one,
// else the handle's spare, else one from the pool. The caller holds dmu.
func (h *Handle) slab() *eventSlab {
	if h.pending == nil {
		if h.spare != nil {
			h.pending, h.spare = h.spare, nil
		} else {
			h.pending = slabPool.Get().(*eventSlab)
		}
	}
	return h.pending
}

// deliver appends events for the consumer's next Next call and wakes it if
// it is parked. It never blocks on the consumer (slabs grow as needed) and
// is a no-op once the stream is terminated.
func (h *Handle) deliver(evs ...TokenEvent) {
	h.dmu.Lock()
	if h.dclosed {
		h.dmu.Unlock()
		return
	}
	s := h.slab()
	s.evs = append(s.evs, evs...)
	h.release()
}

// terminate ends the stream with its reason; the feeding side calls it
// exactly once, after the last event. Done closes before the stream does,
// so FinishReason is valid as soon as a consumer sees Next return nil.
func (h *Handle) terminate(reason FinishReason) {
	h.reason = reason
	close(h.done)
	h.dmu.Lock()
	h.dclosed = true
	if h.spare != nil {
		slabPool.Put(h.spare)
		h.spare = nil
	}
	h.release()
}

// release unlocks dmu and, when the consumer is parked, sends its one wake.
// The caller holds dmu. The send never blocks: notify is empty whenever the
// flag is set (next and unpark each receive the token a park was sent).
func (h *Handle) release() {
	parked := h.waiting
	h.waiting = false
	h.dmu.Unlock()
	if parked {
		h.notify <- struct{}{}
	}
}

// microBatch is the unit passed through the pipeline: one scheduled batch
// with its frozen cost shape and its price. The driver owns one per
// pipeline slot and reuses it once its batch has retired.
type microBatch struct {
	seq   int // iteration ordinal (Snapshot.Iterations at injection)
	batch *sched.Batch
	shape gpu.BatchShape
	// retireAt is when the last stage's window ends, on the runtime clock;
	// 0 when the batch's windows are empty and it is due at once.
	retireAt time.Duration
}

// ErrStopped is returned by SubmitBatchedSpec after Shutdown or Close.
var ErrStopped = errors.New("runtime: stopped")

// ErrQueueFull is returned by SubmitBatchedSpec when admission control
// refuses the request: the submit queue is saturated or the projected KV
// demand of admitted work exceeds the configured headroom. Callers should
// shed load or retry later (the HTTP frontend maps it to 429 + Retry-After).
var ErrQueueFull = errors.New("runtime: queue full")

// Start validates the configuration, spawns the driver and the clock
// goroutine, and returns a serving runtime.
func Start(cfg Config) (*Runtime, error) {
	rt, d, err := build(cfg)
	if err != nil {
		return nil, err
	}
	go rt.pipeline()
	go d.run()
	if rt.cfg.WatchdogTimeout > 0 {
		go rt.watchdogLoop()
	}
	return rt, nil
}

// build validates cfg and returns the runtime and its driver, neither
// started.
func build(cfg Config) (*Runtime, *driver, error) {
	cfg.applyDefaults()
	// Written so that NaN fails: every comparison with NaN is false.
	if !(cfg.TimeScale >= 0 && cfg.TimeScale <= math.MaxFloat64) {
		return nil, nil, fmt.Errorf("runtime: TimeScale %g, want finite and >= 0", cfg.TimeScale)
	}
	if !(cfg.AdmitKVFactor <= math.MaxFloat64) {
		return nil, nil, fmt.Errorf("runtime: AdmitKVFactor %g, want finite", cfg.AdmitKVFactor)
	}
	plan := engine.Config{Model: cfg.Model, GPU: cfg.GPU, Topo: cfg.Topo, MemUtil: cfg.MemUtil,
		Scheduler: cfg.Scheduler, EnablePrefixCache: cfg.EnablePrefixCache, EnableCPP: cfg.EnableCPP,
		Observer: cfg.observe}
	cost, stageLayers, kvCap, err := engine.PlanPipeline(&plan)
	if err != nil {
		return nil, nil, err
	}
	depth := len(stageLayers)
	if cfg.Spans != nil && cfg.Spans.Stages() < depth {
		return nil, nil, fmt.Errorf("runtime: span recorder has %d stages, pipeline %d", cfg.Spans.Stages(), depth)
	}

	rt := &Runtime{
		cfg:         cfg,
		cost:        cost,
		stageLayers: stageLayers,
		kvCapacity:  kvCap,
		submitCh:    make(chan *Handle, cfg.QueueDepth),
		cancelCh:    make(chan *Handle, cfg.QueueDepth),
		pipeCh:      make(chan *microBatch, depth),
		doneCh:      make(chan *microBatch, depth+1),
		busy:        make([]time.Duration, depth),
		stopCh:      make(chan struct{}),
		killCh:      make(chan struct{}),
		stopped:     make(chan struct{}),
		start:       time.Now(),
	}
	if cfg.AdmitKVFactor > 0 {
		rt.admitLimit = int64(cfg.AdmitKVFactor * float64(kvCap))
	}
	rt.gauges.KVFreeRate = 1 // empty cache until the driver's first pass
	return rt, newDriver(rt, &plan), nil
}

// KVCapacityTokens returns the derived KV capacity of the deployment.
func (rt *Runtime) KVCapacityTokens() int64 { return rt.kvCapacity }

// SubmitSpec fully describes one submission; the HTTP frontend and the
// cluster router use it as their request type too (server.SubmitRequest,
// cluster.Request), so per-request context — like the distributed trace
// ID — is added in one place.
type SubmitSpec struct {
	PromptLen int
	MaxTokens int
	// PrefixGroup (non-zero) marks the first SharedPrefixLen prompt tokens
	// as shared content of that group: reusable across requests when
	// Config.EnablePrefixCache is set, and what prefix-affinity routing
	// keys on.
	PrefixGroup     int64
	SharedPrefixLen int
	// Trace is the distributed request-trace context (zero = untraced).
	// The driver records queue/prefill/decode lifecycle spans for traced
	// requests into Config.ReqSpans at termination.
	Trace obs.TraceID
}

// MatchPrefix reports how many leading tokens of a prompt in the given
// prefix group are resident in this runtime's KV cache (whole blocks,
// capped at maxTokens). It reads the residency the driver publishes as the
// cache changes, so it never waits on the driver and the answer is never
// older than the call; a stopped runtime reports 0. Safe for concurrent use
// — this is how a cluster router decides whether a replica still holds a
// conversation's context.
func (rt *Runtime) MatchPrefix(group int64, maxTokens int) int {
	if maxTokens <= 0 || rt.exited.Load() {
		return 0
	}
	return min(rt.prefixRuns.get(group), maxTokens-maxTokens%engine.KVBlockSize)
}

// SubmitBatchedSpec enqueues a request and returns a handle streaming its
// tokens through Handle.Next. It is safe for concurrent use. When ctx is
// cancelled or its deadline expires, the request is aborted at the next
// micro-batch boundary, its KV blocks are released, and its handle
// terminates with FinishCancelled or FinishTimeout.
func (rt *Runtime) SubmitBatchedSpec(ctx context.Context, spec SubmitSpec) (*Handle, error) {
	promptLen, maxTokens := spec.PromptLen, spec.MaxTokens
	if promptLen <= 0 || maxTokens <= 0 {
		return nil, fmt.Errorf("runtime: invalid lengths %d/%d", promptLen, maxTokens)
	}
	if spec.SharedPrefixLen < 0 || spec.SharedPrefixLen > promptLen {
		return nil, fmt.Errorf("runtime: shared prefix %d out of prompt %d", spec.SharedPrefixLen, promptLen)
	}
	// Each length is compared before they are added: a sum that wraps
	// would pass, and turn admission control off with a negative demand.
	if int64(promptLen) > rt.kvCapacity || int64(maxTokens) > rt.kvCapacity-int64(promptLen) {
		return nil, fmt.Errorf("runtime: request needs %d+%d KV tokens, capacity %d", promptLen, maxTokens, rt.kvCapacity)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The read lock pins the driver's stopping flag for the duration of the
	// enqueue: after the driver sets it (write lock) and sweeps the queue,
	// no submission can slip in behind the sweep and leak its handle.
	rt.subMu.RLock()
	defer rt.subMu.RUnlock()
	if rt.stopping || rt.isDraining() {
		return nil, ErrStopped
	}

	demand := int64(promptLen + maxTokens)
	if rt.admitLimit > 0 {
		if rt.admittedKV.Add(demand) > rt.admitLimit {
			rt.admittedKV.Add(-demand)
			rt.rejected.Add(1)
			rt.logEvent(slog.LevelWarn, "submission rejected",
				"reason", "kv_admission", "prompt", promptLen, "max_tokens", maxTokens,
				"limit_tokens", rt.admitLimit)
			return nil, fmt.Errorf("%w: projected KV demand exceeds %d-token admission limit",
				ErrQueueFull, rt.admitLimit)
		}
	} else {
		rt.admittedKV.Add(demand)
	}

	id := rt.nextID.Add(1) - 1

	req := request.New(id, rt.clock(), promptLen, maxTokens)
	req.PrefixGroup = spec.PrefixGroup
	req.SharedPrefixLen = spec.SharedPrefixLen
	req.Trace = spec.Trace
	h := &Handle{ID: id, rt: rt, req: req, kvDemand: demand,
		done: make(chan struct{}), notify: make(chan struct{}, 1)}
	if ctx.Done() != nil {
		// Registered before the handle reaches the driver, whose finish
		// unregisters it. A hook that fires first finds the request
		// unadmitted, and admit aborts it.
		h.watched = ctx.Done()
		h.stopWatch = context.AfterFunc(ctx, func() {
			// Wake a consumer parked in Next to see ctx done, before the
			// cancel, which can wait on a busy driver.
			h.dmu.Lock()
			h.release()
			reason := FinishCancelled
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				reason = FinishTimeout
			}
			rt.requestCancel(h, reason)
		})
	}
	select {
	case rt.submitCh <- h:
	default:
		if h.stopWatch != nil {
			h.stopWatch()
		}
		rt.admittedKV.Add(-demand)
		rt.rejected.Add(1)
		rt.logEvent(slog.LevelWarn, "submission rejected",
			"reason", "queue_full", "id", id, "depth", cap(rt.submitCh))
		return nil, fmt.Errorf("%w: submit queue saturated (depth %d)", ErrQueueFull, cap(rt.submitCh))
	}
	return h, nil
}

// Submit is SubmitBatchedSpec behind a per-token channel, kept because the
// frozen benchmark's runtime.chan_ns_per_token probe calls it: one pump
// goroutine drains Next into Handle.Events and exits when the stream ends.
// The channel holds the whole stream — at most maxTokens events, since an
// abort terminator replaces at least one ungenerated token — so the pump
// never blocks on a slow consumer.
func (rt *Runtime) Submit(promptLen, maxTokens int) (*Handle, error) {
	ctx := context.Background()
	h, err := rt.SubmitBatchedSpec(ctx, SubmitSpec{PromptLen: promptLen, MaxTokens: maxTokens})
	if err != nil {
		return nil, err
	}
	events := make(chan TokenEvent, maxTokens)
	h.Events = events
	go func() {
		defer close(events)
		for evs := h.next(ctx); evs != nil; evs = h.next(ctx) {
			for _, ev := range evs {
				events <- ev
			}
		}
	}()
	return h, nil
}

// proxyCancel records the abort reason (first writer wins) and invokes the
// proxy handle's onCancel hook exactly once. Safe from any goroutine.
func (h *Handle) proxyCancel(reason FinishReason) {
	if !h.abortReason.CompareAndSwap(nil, &reason) {
		return
	}
	if h.onCancel != nil {
		h.onCancel(reason)
	}
}

// requestCancel records the abort reason (first writer wins) and notifies
// the driver exactly once. Safe from any goroutine; no-op once terminal.
func (rt *Runtime) requestCancel(h *Handle, reason FinishReason) {
	if !h.abortReason.CompareAndSwap(nil, &reason) {
		return
	}
	select {
	case rt.cancelCh <- h:
	case <-h.done:
	case <-rt.stopped:
	}
}

// Stats returns a snapshot of runtime counters and health. Finished and
// Cancelled come from the collector, which counts a request before its
// stream ends; the other counters are the driver's atomics (always
// current); the pool-derived gauges (WaitingPrefill, RunningDecode, the KV
// and prefix fields, Preemptions) reflect the driver's most recent publish
// — exact whenever the pipeline is idle or the driver is blocked waiting
// for work, and at most a few micro-batches stale under sustained load.
func (rt *Runtime) Stats() Snapshot {
	uptime := rt.clock()
	rt.mu.Lock()
	s := rt.gauges
	s.StageBusySeconds = make([]float64, len(rt.busy))
	for i, b := range rt.busy {
		s.StageBusySeconds[i] = b.Seconds()
	}
	s.BubbleRate = obs.BubbleRate(rt.busy, max(uptime, rt.booked))
	rt.mu.Unlock()
	s.Finished, s.Cancelled = rt.outcomes()
	s.Iterations = int(rt.iterations.Load())
	s.InFlight = int(rt.inFlight.Load())
	s.Resident = int(rt.resident.Load())
	s.Rejected = rt.rejected.Load()
	s.Uptime = uptime
	s.Health = rt.health()
	return s
}

// outcomes splits the collector's terminated requests into completed
// generations and aborts, from one read.
func (rt *Runtime) outcomes() (finished, cancelled int) {
	for reason, n := range rt.collector.ByReason() {
		if reason == string(FinishLength) {
			finished = n
		} else {
			cancelled += n
		}
	}
	return finished, cancelled
}

// health classifies the runtime's current serving state.
func (rt *Runtime) health() string {
	switch {
	case rt.exited.Load():
		return HealthStopped
	case rt.isDraining():
		return HealthDraining
	case rt.degraded.Load():
		return HealthDegraded
	default:
		return HealthOK
	}
}

// Pressure returns the lightweight routing view: KV headroom, residency,
// queue occupancy, and health, without Snapshot's per-stage allocations.
// Gauge staleness matches Stats (exact when the driver idles, at most a
// few micro-batches behind under sustained load).
func (rt *Runtime) Pressure() Pressure {
	rt.mu.Lock()
	free := rt.gauges.KVFreeRate
	rt.mu.Unlock()
	return Pressure{
		KVFree:   free,
		Resident: int(rt.resident.Load()),
		QueueLen: len(rt.submitCh),
		Health:   rt.health(),
	}
}

func (rt *Runtime) isDraining() bool {
	select {
	case <-rt.stopCh:
		return true
	default:
		return false
	}
}

// Metrics exposes the runtime's fixed-size collector (safe for concurrent
// use; the server builds its /metrics page from its Scrape).
func (rt *Runtime) Metrics() *metrics.Live { return &rt.collector }

// Start returns the runtime's wall-clock start time (span timestamps in
// Config.Spans are relative to it).
func (rt *Runtime) Start() time.Time { return rt.start }

// logEvent emits a structured lifecycle log when a Logger is configured.
func (rt *Runtime) logEvent(level slog.Level, msg string, args ...any) {
	if rt.cfg.Logger != nil {
		rt.cfg.Logger.Log(context.Background(), level, msg, args...)
	}
}

// Shutdown drains the runtime gracefully: new submissions are refused, but
// queued and in-flight work keeps being scheduled until it completes. When
// ctx expires first, the remainder is aborted (handles terminate with
// FinishShutdown and closed channels) and ctx.Err() is returned. It is
// idempotent and safe for concurrent use.
func (rt *Runtime) Shutdown(ctx context.Context) error {
	rt.stopOnce.Do(func() { close(rt.stopCh) })
	select {
	case <-rt.stopped:
		return nil
	case <-ctx.Done():
		rt.killOnce.Do(func() { close(rt.killCh) })
		<-rt.stopped
		return ctx.Err()
	}
}

// Close stops the runtime immediately: in-flight micro-batches retire with
// their deadlines cut short, and every outstanding request is aborted
// with FinishShutdown. Idempotent and safe for concurrent use.
func (rt *Runtime) Close() error {
	rt.stopOnce.Do(func() { close(rt.stopCh) })
	rt.killOnce.Do(func() { close(rt.killCh) })
	<-rt.stopped
	return nil
}

// watchdogLoop flags the runtime degraded when batches are in flight but
// none has retired for WatchdogTimeout — a stalled stage (or an injected
// fault) rather than an idle pipeline.
func (rt *Runtime) watchdogLoop() {
	timeout := rt.cfg.WatchdogTimeout
	tick := timeout / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-rt.stopped:
			return
		case <-t.C:
			inFlight := int(rt.inFlight.Load())
			stalled := rt.clock() - time.Duration(rt.lastBeat.Load())
			cur := inFlight > 0 && stalled > timeout
			if prev := rt.degraded.Swap(cur); prev != cur {
				if cur {
					rt.logEvent(slog.LevelWarn, "health degraded",
						"in_flight", inFlight, "stalled_for", stalled)
				} else {
					rt.logEvent(slog.LevelInfo, "health recovered")
				}
			}
		}
	}
}

// beat records driver scheduling progress for the watchdog; now is the
// driver's reading of the runtime clock for the current event.
func (rt *Runtime) beat(now time.Duration) { rt.lastBeat.Store(int64(now)) }

// emulates reports whether modeled time is priced at all; when it is not,
// nothing needs pricing.
func (rt *Runtime) emulates() bool { return rt.cfg.TimeScale > 0 }

// scale converts modeled time into wall time.
func (rt *Runtime) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * rt.cfg.TimeScale)
}

// clock reads the runtime clock: wall time since start, on the monotonic
// clock. The driver, the frontend, the watchdog and the clock goroutine
// read it only here.
func (rt *Runtime) clock() time.Duration { return time.Since(rt.start) }

// pipeline is the clock goroutine: it hands each batch back to the driver
// on doneCh at its retireAt, in injection order, which is retire order
// since every stage serves batches first come first served. It reads the
// clock only for a batch with a deadline and waits on one reused timer;
// once Close is called it waits for nothing. It exits when the driver
// closes pipeCh.
func (rt *Runtime) pipeline() {
	wait := time.NewTimer(time.Hour)
	wait.Stop()
	for mb := range rt.pipeCh {
		if mb.retireAt > 0 {
			if d := mb.retireAt - rt.clock(); d > 0 {
				// A timer the kill case abandons may fire later; its stale
				// tick can only cut short a wait that killCh cuts anyway.
				wait.Reset(d)
				select {
				case <-wait.C:
				case <-rt.killCh:
				}
			}
		}
		rt.doneCh <- mb
	}
}

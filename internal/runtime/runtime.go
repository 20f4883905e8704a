// Package runtime implements the gLLM asynchronous serving runtime (§3.3)
// as a real concurrent system: a driver goroutine that owns scheduling and
// the KV cache, one worker goroutine per pipeline stage, and a decoupled
// frontend (SubmitBatchedSpec returns immediately; tokens stream back as
// pooled per-micro-batch event slabs drained with Handle.Next, the
// zero-alloc steady-state path every frontend uses).
//
// The paper's three design principles map directly onto Go concurrency:
//
//  1. Non-blocking pipeline operations — workers receive work over
//     channels and never spin-wait; the driver never blocks on emission.
//  2. Decoupled frontend/backend — submitting is safe from any goroutine
//     and communicates with the driver only through a channel.
//  3. Preemptive (dual-phase) metadata scheduling — in async mode the
//     driver broadcasts a metadata packet to every stage as soon as a
//     micro-batch is scheduled; each stage worker drains the metadata
//     whenever it is awake (after forwarding a batch), so inputs are
//     prepared while later stages compute earlier batches. In sync mode
//     (the vLLM-like baseline) metadata travels with the activations and
//     preparation sits on the critical path.
//
// GPU compute is emulated: stage execution occupies the worker for the
// duration given by the same gpu.CostModel the discrete-event engine uses,
// scaled by Config.TimeScale (0 disables sleeping entirely, useful for
// tests and for the fastest-possible serving of synthetic tokens).
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
// cutting emulated GPU sleeps short. Both are idempotent and safe to call
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
	// Async selects the gLLM dual-phase runtime; false gives the coupled
	// (vLLM-like) baseline.
	Async bool
	// EnablePrefixCache turns on cross-request KV reuse for submissions
	// that declare a prefix group.
	EnablePrefixCache bool
	// EnableCPP turns on chunked pipeline parallelism for long prompts.
	EnableCPP bool
	// TimeScale converts modeled GPU time into wall-clock sleeps
	// (e.g. 0.001 = 1000x faster than modeled). Zero disables sleeping.
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
	// StageFault, when non-nil, is consulted by every stage worker before
	// computing a micro-batch: a positive duration stalls that stage for
	// that wall-clock time. Fault injection for testing the watchdog,
	// degraded health, and shutdown-under-fault paths. Must be safe for
	// concurrent use; Close cuts injected stalls short.
	StageFault func(stage, seq int) time.Duration
	// Spans, when non-nil, receives per-stage execute/transfer and driver
	// prep spans (wall-clock, relative to runtime start). Its stage count
	// must cover the topology's GPUs. Nil costs nothing per micro-batch.
	Spans *obs.Recorder
	// ReqSpans, when non-nil, receives per-request lifecycle spans
	// (queue/prefill/decode, side "replica") for submissions carrying a
	// distributed trace ID. Nil, or an untraced submission, costs one nil
	// check per terminated request.
	ReqSpans *obs.ReqRecorder
	// Logger, when non-nil, receives structured lifecycle logs
	// (admit/reject/abort/drain/degrade). Nil disables logging.
	Logger *slog.Logger
}

func (c *Config) applyDefaults() {
	if c.MemUtil == 0 {
		c.MemUtil = 0.9
	}
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
	// the context can never be cancelled.
	stopWatch func() bool

	// Slab delivery: the feeding side appends to pending under dmu — a
	// short critical section, so it never blocks on a slow consumer — and
	// pokes notify (capacity 1, non-blocking) once per delivery.
	dmu     sync.Mutex
	pending *eventSlab
	dclosed bool
	notify  chan struct{}
	// cur is the slab most recently returned by Next; recycled on the
	// following Next call.
	cur *eventSlab
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
// through it.
func (h *Handle) next(ctx context.Context) []TokenEvent {
	if h.cur != nil {
		h.cur.evs = h.cur.evs[:0]
		slabPool.Put(h.cur)
		h.cur = nil
	}
	var cancelled <-chan struct{}
	if ctx != nil {
		cancelled = ctx.Done()
	}
	for {
		h.dmu.Lock()
		s := h.pending
		h.pending = nil
		closed := h.dclosed
		h.dmu.Unlock()
		if s != nil && len(s.evs) > 0 {
			h.cur = s
			return s.evs
		}
		if s != nil {
			slabPool.Put(s) // delivered empty: recycle immediately
		}
		if closed {
			return nil
		}
		select {
		case <-h.notify:
		case <-cancelled:
			return nil
		}
	}
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
	// StageBusySeconds is each stage worker's cumulative execute time
	// (emulated compute occupancy, as slept; zero when TimeScale is 0).
	StageBusySeconds []float64
	// BubbleRate is the aggregate pipeline bubble rate over the uptime:
	// 1 − Σ_s busy_s / (stages × uptime), the paper's §3 quantity.
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
	queryCh  chan kvQuery
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

	workers []*worker

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

	// gauges holds the Snapshot fields derived from driver-owned pool
	// state, as last published by the driver; Stats fills in the rest.
	mu     sync.Mutex
	gauges Snapshot

	admittedKV atomic.Int64 // projected KV tokens of admitted, unfinished requests
	rejected   atomic.Int64
	degraded   atomic.Bool
	lastBeat   atomic.Int64 // driver's last scheduling progress, ns since start (monotonic)

	nextID atomic.Int64
	start  time.Time
}

// kvQuery asks the driver a question about its (driver-owned) KV cache;
// the reply channel must be buffered so the driver never blocks answering.
type kvQuery struct {
	group     int64
	maxTokens int
	reply     chan int
}

// eventSlab is a reusable batch of token events: the driver appends a
// request's new tokens once per retired micro-batch, the consumer swaps the
// slab out wholesale via Handle.Next. Pooled so steady-state delivery
// allocates nothing.
type eventSlab struct{ evs []TokenEvent }

var slabPool = sync.Pool{New: func() any { return &eventSlab{evs: make([]TokenEvent, 0, 64)} }}

// slab returns the slab the next events are appended to, taking one from
// the pool when the consumer has swapped the last one out. The caller
// holds dmu.
func (h *Handle) slab() *eventSlab {
	if h.pending == nil {
		h.pending = slabPool.Get().(*eventSlab)
	}
	return h.pending
}

// deliver appends events for the consumer's next Next call and wakes it.
// It never blocks on the consumer (slabs grow as needed) and is a no-op
// once the stream is terminated.
func (h *Handle) deliver(evs ...TokenEvent) {
	h.dmu.Lock()
	if h.dclosed {
		h.dmu.Unlock()
		return
	}
	s := h.slab()
	s.evs = append(s.evs, evs...)
	h.dmu.Unlock()
	h.notifyDelivery()
}

// terminate ends the stream with its reason; the feeding side calls it
// exactly once, after the last event. Done closes before the stream does,
// so FinishReason is valid as soon as a consumer sees Next return nil.
func (h *Handle) terminate(reason FinishReason) {
	h.reason = reason
	close(h.done)
	h.dmu.Lock()
	h.dclosed = true
	h.dmu.Unlock()
	h.notifyDelivery()
}

// notifyDelivery wakes a Next waiter; never blocks (capacity-1 channel: a
// pending token already guarantees a wakeup).
func (h *Handle) notifyDelivery() {
	select {
	case h.notify <- struct{}{}:
	default:
	}
}

// microBatch is the unit passed through the pipeline: one scheduled batch
// with its frozen cost shape. The driver owns one per pipeline slot and
// reuses it once its batch has retired.
type microBatch struct {
	seq   int
	batch *sched.Batch
	shape gpu.BatchShape
}

// kvBlockSize is tokens per KV block.
const kvBlockSize = 16

// ErrStopped is returned by SubmitBatchedSpec after Shutdown or Close.
var ErrStopped = errors.New("runtime: stopped")

// ErrQueueFull is returned by SubmitBatchedSpec when admission control
// refuses the request: the submit queue is saturated or the projected KV
// demand of admitted work exceeds the configured headroom. Callers should
// shed load or retry later (the HTTP frontend maps it to 429 + Retry-After).
var ErrQueueFull = errors.New("runtime: queue full")

// Start validates the configuration, spawns the driver and stage workers,
// and returns a serving runtime.
func Start(cfg Config) (*Runtime, error) {
	cfg.applyDefaults()
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.GPU.Validate(); err != nil {
		return nil, err
	}
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("runtime: nil scheduler")
	}
	depth := cfg.Topo.GPUs()
	if depth < 1 || depth > cfg.Model.NumLayers {
		return nil, fmt.Errorf("runtime: invalid pipeline depth %d", depth)
	}
	if cfg.MemUtil <= 0 || cfg.MemUtil > 1 {
		return nil, fmt.Errorf("runtime: MemUtil %g out of (0,1]", cfg.MemUtil)
	}
	cost := gpu.NewCostModel(cfg.Model, cfg.GPU)
	stageLayers := cfg.Model.StageLayers(depth)
	kvCap := cost.KVCapacityTokensPP(stageLayers, cfg.MemUtil)
	if kvCap < kvBlockSize {
		return nil, fmt.Errorf("runtime: %s on %d x %s (KV capacity %d tokens): %w",
			cfg.Model.Name, depth, cfg.GPU.Name, kvCap, engine.ErrModelDoesNotFit)
	}

	rt := &Runtime{
		cfg:         cfg,
		cost:        cost,
		stageLayers: stageLayers,
		kvCapacity:  kvCap,
		submitCh:    make(chan *Handle, cfg.QueueDepth),
		cancelCh:    make(chan *Handle, cfg.QueueDepth),
		queryCh:     make(chan kvQuery),
		doneCh:      make(chan *microBatch, depth+1),
		stopCh:      make(chan struct{}),
		killCh:      make(chan struct{}),
		stopped:     make(chan struct{}),
		start:       time.Now(),
	}
	if cfg.AdmitKVFactor > 0 {
		rt.admitLimit = int64(cfg.AdmitKVFactor * float64(kvCap))
	}
	rt.gauges.KVFreeRate = 1 // empty cache until the driver's first pass
	rt.workers = make([]*worker, depth)
	for i := range rt.workers {
		rt.workers[i] = newWorker(rt, i)
	}
	// Wire activation channels stage i -> i+1; the last feeds doneCh.
	for i, w := range rt.workers {
		w.start(i+1 < depth)
	}
	go newDriver(rt).run()
	if cfg.WatchdogTimeout > 0 {
		go rt.watchdogLoop()
	}
	return rt, nil
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
// capped at maxTokens). The driver answers the query between scheduling
// events, so the result is exact at the moment of the answer; a stopped
// runtime reports 0. Safe for concurrent use — this is how a cluster
// router decides whether a replica still holds a conversation's context.
func (rt *Runtime) MatchPrefix(group int64, maxTokens int) int {
	if group == 0 || maxTokens <= 0 {
		return 0
	}
	q := kvQuery{group: group, maxTokens: maxTokens, reply: make(chan int, 1)}
	select {
	case rt.queryCh <- q:
		return <-q.reply
	case <-rt.stopped:
		return 0
	}
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
	if int64(promptLen+maxTokens) > rt.kvCapacity {
		return nil, fmt.Errorf("runtime: request needs %d KV tokens, capacity %d", promptLen+maxTokens, rt.kvCapacity)
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

	req := request.New(id, time.Since(rt.start), promptLen, maxTokens)
	req.PrefixGroup = spec.PrefixGroup
	req.SharedPrefixLen = spec.SharedPrefixLen
	req.Trace = spec.Trace
	h := &Handle{ID: id, rt: rt, req: req, kvDemand: demand,
		done: make(chan struct{}), notify: make(chan struct{}, 1)}
	if ctx.Done() != nil {
		// Registered before the handle reaches the driver, whose finish
		// unregisters it. A hook that fires first finds the request
		// unadmitted, and admit aborts it.
		h.stopWatch = context.AfterFunc(ctx, func() {
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
	rt.mu.Lock()
	s := rt.gauges
	rt.mu.Unlock()
	s.Finished, s.Cancelled = rt.outcomes()
	s.Iterations = int(rt.iterations.Load())
	s.InFlight = int(rt.inFlight.Load())
	s.Resident = int(rt.resident.Load())
	s.Rejected = rt.rejected.Load()
	s.Uptime = time.Since(rt.start)
	s.StageBusySeconds = make([]float64, len(rt.workers))
	var busy float64
	for i, w := range rt.workers {
		s.StageBusySeconds[i] = time.Duration(w.busyNanos.Load()).Seconds()
		busy += s.StageBusySeconds[i]
	}
	if s.Uptime > 0 {
		s.BubbleRate = 1 - busy/(s.Uptime.Seconds()*float64(len(rt.workers)))
	}
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
	case rt.isStopped():
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

func (rt *Runtime) isStopped() bool {
	select {
	case <-rt.stopped:
		return true
	default:
		return false
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
// their emulated sleeps cut short, and every outstanding request is aborted
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
			stalled := time.Since(rt.start) - time.Duration(rt.lastBeat.Load())
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

// emulates reports whether modeled time is slept at all; when it is not,
// nothing needs pricing.
func (rt *Runtime) emulates() bool { return rt.cfg.TimeScale > 0 }

// spanClock reads the runtime clock for a span bound, and only when there
// is a span recorder to receive it.
func (rt *Runtime) spanClock() time.Duration {
	if rt.cfg.Spans == nil {
		return 0
	}
	return time.Since(rt.start)
}

// sleepScaled emulates occupancy of modeled duration d and returns the wall
// time actually slept.
func (rt *Runtime) sleepScaled(d time.Duration) time.Duration {
	if !rt.emulates() || d <= 0 {
		return 0
	}
	return rt.sleepWall(time.Duration(float64(d) * rt.cfg.TimeScale))
}

// sleepWall sleeps for wall-clock duration d, cut short by Close, and
// returns the wall time actually slept.
func (rt *Runtime) sleepWall(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	start := time.Now()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-rt.killCh:
	}
	return time.Since(start)
}

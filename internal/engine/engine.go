// Package engine provides the virtual-time serving engines that the
// experiments run on: a pipeline-parallel engine (micro-batches flowing
// through per-GPU stages, where unbalanced batches turn into pipeline
// bubbles), a tensor-parallel engine (whole-model iterations paying
// per-layer all-reduces), a disaggregated engine (separate prefill and
// decode replicas with KV migration), and a token-parallel TKNP engine
// (root ranks hold the weights, every rank owns a KV partition and runs
// attention over it, queries scatter and attention outputs gather each
// layer). All engines share the scheduler framework, the paged KV cache,
// the GPU roofline cost model and the network link model, and differ only
// in how a scheduled micro-batch maps onto hardware time: kernel.go owns
// the one iteration loop, and each engine file supplies the strategy that
// prices a batch shape, books it on its devices' free-at times and records
// its spans (DESIGN.md §9).
package engine

import (
	"fmt"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/kvcache"
	"gllm/internal/metrics"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/request"
	"gllm/internal/sched"
)

// BatchObserver receives the engine's scheduling-loop callbacks, one
// observer per scheduler pool. Engines call BeforeSchedule immediately
// before every Scheduler.Schedule, AfterSchedule immediately after it (also
// for empty batches), AfterComplete after Pool.Complete retires a batch
// (for the disaggregated engine: after the prefill→decode migration of that
// batch's requests), and Final once the event loop drains. A non-nil Err at
// any hook boundary aborts the run with that error. The canonical
// implementation is internal/invariant's Checker.
type BatchObserver interface {
	BeforeSchedule(now time.Duration)
	AfterSchedule(b *sched.Batch, now time.Duration)
	AfterComplete(b *sched.Batch, finished []*request.Request, now time.Duration)
	Final(now time.Duration) error
	Err() error
}

// SeqObserver is optionally implemented by a BatchObserver that audits KV
// residency. MarkExternal declares that a sequence's blocks legitimately
// outlive its pool membership (a disaggregated KV hand-off in flight);
// UnmarkExternal retires the exemption once the owning pool frees them.
type SeqObserver interface {
	MarkExternal(id kvcache.SeqID)
	UnmarkExternal(id kvcache.SeqID)
}

func markExternal(obs BatchObserver, id kvcache.SeqID) {
	if so, ok := obs.(SeqObserver); ok {
		so.MarkExternal(id)
	}
}

func unmarkExternal(obs BatchObserver, id kvcache.SeqID) {
	if so, ok := obs.(SeqObserver); ok {
		so.UnmarkExternal(id)
	}
}

// ScheduledBatch is one non-empty batch as Schedule returned it.
type ScheduledBatch struct {
	Time    time.Duration
	Prefill int
	Decode  int
}

// BatchLog records every non-empty batch a run schedules, in scheduling
// order across all of its pools: Figures 1 and 4's per-iteration series. A
// run without one keeps nothing per batch.
type BatchLog struct {
	Batches []ScheduledBatch
}

// Observer returns a Config.Observer that logs into l ahead of the observer
// next builds for the same pool (next may be nil, or build nil).
func (l *BatchLog) Observer(next func(*sched.Pool, sched.Scheduler) BatchObserver) func(*sched.Pool, sched.Scheduler) BatchObserver {
	return func(p *sched.Pool, s sched.Scheduler) BatchObserver {
		var o BatchObserver = noObserver{}
		if next != nil {
			if n := next(p, s); n != nil {
				o = n
			}
		}
		return batchLogger{o, l}
	}
}

// Tokens returns each logged batch's total token count.
func (l *BatchLog) Tokens() []float64 {
	out := make([]float64, len(l.Batches))
	for i, b := range l.Batches {
		out[i] = float64(b.Prefill + b.Decode)
	}
	return out
}

// batchLogger is one pool's BatchLog hook in front of the pool's own
// observer, which sees every call.
type batchLogger struct {
	BatchObserver
	log *BatchLog
}

func (o batchLogger) AfterSchedule(b *sched.Batch, now time.Duration) {
	if !b.Empty() {
		o.log.Batches = append(o.log.Batches, ScheduledBatch{Time: now, Prefill: b.PrefillTokens(), Decode: b.DecodeTokens()})
	}
	o.BatchObserver.AfterSchedule(b, now)
}

func (o batchLogger) MarkExternal(id kvcache.SeqID)   { markExternal(o.BatchObserver, id) }
func (o batchLogger) UnmarkExternal(id kvcache.SeqID) { unmarkExternal(o.BatchObserver, id) }

// noObserver is what a batchLogger hands on to when its pool has no observer.
type noObserver struct{}

func (noObserver) BeforeSchedule(time.Duration)                                  {}
func (noObserver) AfterSchedule(*sched.Batch, time.Duration)                     {}
func (noObserver) AfterComplete(*sched.Batch, []*request.Request, time.Duration) {}
func (noObserver) Final(time.Duration) error                                     { return nil }
func (noObserver) Err() error                                                    { return nil }

// RuntimeModel prices the control-plane (CPU) work of a serving runtime:
// input preparation, metadata handling and sampling around each
// micro-batch. The paper measures vLLM's coupled input preparation at ~17%
// of execution time, while the gLLM asynchronous runtime overlaps all but
// 0.045 ms per iteration (§3.4).
type RuntimeModel struct {
	Name string
	// Coupled runtimes serialize PrepTime on the batch critical path
	// through a single driver CPU (vLLM/SGLang). A decoupled runtime
	// overlaps preparation with execution: PrepTime delays only its batch.
	Coupled bool
	// PrepBase is the fixed CPU cost per micro-batch (gLLM: Token Throttling).
	PrepBase time.Duration
	// PrepPerSeq is the CPU cost per batched sequence (python-side list and
	// metadata work scales with sequences).
	PrepPerSeq time.Duration
	// PrepPerToken is the CPU cost per batched token.
	PrepPerToken time.Duration
}

// PrepTime returns the CPU time charged before a batch with the given
// sequence and token counts starts stage 0.
func (rm RuntimeModel) PrepTime(seqs, tokens int) time.Duration {
	return rm.PrepBase + time.Duration(seqs)*rm.PrepPerSeq + time.Duration(tokens)*rm.PrepPerToken
}

// BookPrep books a batch's prep charge, injected at now, and returns when
// it starts. A coupled runtime queues it on the one driver CPU, which is
// next free at *cpuFree and then held until start+prep; a decoupled one
// delays only this batch, from now.
func (rm RuntimeModel) BookPrep(cpuFree *time.Duration, now, prep time.Duration) (start time.Duration) {
	if !rm.Coupled {
		return now
	}
	start = max(now, *cpuFree)
	*cpuFree = start + prep
	return start
}

// Built-in runtime models, calibrated against the paper's measurements.
var (
	// VLLMRuntime models vLLM's pipeline runtime: activation transmission
	// coupled with input scheduling metadata, so per-batch CPU preparation
	// sits on the critical path (§3.4: ≈17% of execution time).
	VLLMRuntime = RuntimeModel{
		Name:         "vllm",
		Coupled:      true,
		PrepBase:     2 * time.Millisecond,
		PrepPerSeq:   40 * time.Microsecond,
		PrepPerToken: 2 * time.Microsecond,
	}
	// SGLangRuntime models SGLang's lower-overhead (but still synchronous)
	// runtime.
	SGLangRuntime = RuntimeModel{
		Name:         "sglang",
		Coupled:      true,
		PrepBase:     time.Millisecond,
		PrepPerSeq:   10 * time.Microsecond,
		PrepPerToken: time.Microsecond,
	}
	// GLLMRuntime models the paper's asynchronous runtime: dual-phase
	// metadata/activation transmission overlaps preparation with compute;
	// only the Token Throttling bookkeeping (measured 0.045 ms) serializes.
	GLLMRuntime = RuntimeModel{
		Name:     "gllm",
		PrepBase: 45 * time.Microsecond,
	}
)

// Config describes one serving deployment to simulate.
type Config struct {
	Model model.Config
	GPU   gpu.Spec
	// Topo wires the GPUs; its size fixes the parallelism degree.
	Topo network.Topology
	// MemUtil is the --gpu-memory-util knob (fraction of device memory the
	// engine may use, weights first).
	MemUtil   float64
	Scheduler sched.Scheduler
	Runtime   RuntimeModel

	// EnablePrefixCache turns on cross-request KV reuse for requests that
	// declare a prefix group (off by default, matching the paper's
	// evaluation setting).
	EnablePrefixCache bool

	// EnableCPP turns on chunked pipeline parallelism: a long prompt's
	// chunks ride consecutive micro-batches instead of waiting for each
	// other, trading per-chunk latency overlap for TTFT (off by default).
	EnableCPP bool

	// Observer, when set, is invoked once per scheduler pool at engine
	// start; the returned observer is then driven through the run's
	// scheduling loop (invariant checking — see internal/invariant). The
	// disaggregated engine builds one observer per replica.
	Observer func(p *sched.Pool, s sched.Scheduler) BatchObserver

	// Spans, when non-nil, receives per-stage, per-micro-batch
	// execute/transfer/prep spans (Chrome-trace exportable via
	// obs.Recorder.WriteChrome). Its stage count must cover the topology's
	// GPUs. A nil recorder costs nothing on the micro-batch path.
	Spans *obs.Recorder
}

const (
	// KVBlockSize is tokens per KV block (vLLM's default), on both loops.
	KVBlockSize = 16
	// maxVirtualTime aborts a run that simulates longer than this: a guard
	// against scheduling deadlocks and livelocks.
	maxVirtualTime = 4 * time.Hour
)

func (c *Config) applyDefaults() {
	if c.MemUtil == 0 {
		c.MemUtil = 0.9
	}
}

func (c *Config) validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if err := c.GPU.Validate(); err != nil {
		return err
	}
	if c.Topo.GPUs() < 1 {
		return fmt.Errorf("engine: empty topology")
	}
	if !(c.MemUtil > 0 && c.MemUtil <= 1) { // NaN fails too
		return fmt.Errorf("engine: MemUtil %g out of (0,1]", c.MemUtil)
	}
	if c.Scheduler == nil {
		return fmt.Errorf("engine: nil scheduler")
	}
	return nil
}

// Result is the outcome of one simulated serving run.
type Result struct {
	SchedulerName string
	RuntimeName   string
	Requests      int
	Report        metrics.Report
	Collector     *metrics.Collector
	Preemptions   int
	Injections    int
	// Makespan is the virtual time of the last request completion.
	Makespan time.Duration
	// BubbleFraction is the stage idle fraction over the makespan.
	BubbleFraction float64
	// StageBusy is each stage's cumulative execute time over the run (the
	// numerators of BubbleFraction; one entry per pipeline stage, prefill
	// stages first for the disaggregated engine).
	StageBusy []time.Duration
	// StageTransfer is each stage's cumulative outgoing transfer time (the
	// activation hops, the disaggregated KV hand-off, the token-parallel
	// scatter/gather on rank 0) and PrepTime the driver's cumulative input
	// preparation: with StageBusy, what obs.Account summarizes.
	StageTransfer []time.Duration
	PrepTime      time.Duration
	// KVCapacityTokens is the derived cluster KV capacity.
	KVCapacityTokens int64
	// KVTransfers / KVTransferBytes count prefill→decode KV-cache
	// migrations (disaggregated engine only; zero elsewhere).
	KVTransfers     int
	KVTransferBytes int64
	// TknpCommBytes counts the token-parallel engine's query-scatter and
	// attention-gather traffic over the group link (zero elsewhere).
	TknpCommBytes int64
}

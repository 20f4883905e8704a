package engine

import (
	"fmt"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/kvcache"
	"gllm/internal/metrics"
	"gllm/internal/obs"
	"gllm/internal/request"
	"gllm/internal/sched"
	"gllm/internal/sim"
	"gllm/internal/workload"
)

// The iteration kernel: every engine is one run (clock, arrivals, abort
// guards, collector, Result) driving one loop per scheduler pool, and
// contributes only a strategy. Event order is the contract: sim.Engine
// breaks timestamp ties by insertion sequence, so the order in which fill,
// retire, refill and the strategies issue At/After/Submit decides every
// later scheduling decision (DESIGN.md §9; pinned by golden_test.go).

// strategy is an engine's half of the kernel: how a scheduled micro-batch
// occupies hardware time.
type strategy interface {
	// execute prices mb's frozen shape onto sim.Resources, records its spans,
	// and calls mb.loop.retire(mb) when the batch leaves the hardware.
	execute(mb *microBatch)
	// stageBusy appends each rank's cumulative execute time so far.
	stageBusy(dst []time.Duration) []time.Duration
}

// microBatch is one scheduled batch in flight with its frozen cost shape. A
// loop owns one per slot and reuses it once its batch has retired, so an
// injection allocates no carrier — and no closure: every callback the clock
// is handed for the slot is bound once (prepped by addLoop, the rest by the
// strategy on first execute) and reads its arguments from the fields below.
type microBatch struct {
	loop  *loop
	batch *sched.Batch // the loop's from Schedule until retire hands it back
	shape gpu.BatchShape
	seq   int // injection ordinal across the run, for span labels

	prep    time.Duration // this injection's prep charge
	prepped func()        // the prep charge has elapsed: record it, execute

	// The strategy's: where the batch is on the hardware and what the clock
	// calls when it leaves there.
	stage   int
	unit    time.Duration // the chain's price of shape, per layer it holds
	dur     time.Duration
	ran     func() // the stage (or whole iteration) finished
	arrived func() // the activations reached the next stage
}

// run is the live state of one simulation.
type run struct {
	cfg       Config
	eng       *sim.Engine
	cost      gpu.CostModel
	driverCPU *sim.Resource // serializes a coupled runtime's prep
	loops     []*loop
	// admit, when set, runs ahead of every refill (the disaggregated engine
	// adopts landed KV migrations into its decode pool there).
	admit func()

	// col is allocated apart from the run: the Result hands it out, and a
	// kept Result must not pin pools, KV managers and the event heap.
	col *metrics.Collector

	total      int
	finished   int
	injections int
	lastFinish time.Duration
	aborted    error
	// Booked by the strategies that move bytes between ranks or replicas.
	kvTransfers     int
	kvTransferBytes int64
	tknpCommBytes   int64
}

// loop drives one scheduler pool with a fixed number of micro-batch slots.
type loop struct {
	run   *run
	pool  *sched.Pool
	sched sched.Scheduler
	obs   BatchObserver
	exec  strategy
	free  []*microBatch // the slots with no batch in flight
	// migrate, when set, sees each retired batch after its slot is freed
	// and before AfterComplete (disaggregated prefill → decode hand-off).
	migrate func(b *sched.Batch)
}

// newRun applies cfg's defaults, validates it and starts a run's clock.
func newRun(cfg *Config) (*run, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	eng := sim.New()
	return &run{cfg: *cfg, eng: eng, cost: gpu.NewCostModel(cfg.Model, cfg.GPU),
		driverCPU: sim.NewResource(eng, "driver-cpu"), col: new(metrics.Collector)}, nil
}

// addLoop adds a scheduler pool over kvCap tokens of KV cache whose batches,
// at most slots at a time, run on exec.
func (r *run) addLoop(kvCap int64, slots int, s sched.Scheduler, exec strategy) *loop {
	l := &loop{run: r, pool: sched.NewPool(kvcache.New(kvCap, kvBlockSize), slots), sched: s, exec: exec}
	for range slots {
		mb := &microBatch{loop: l}
		mb.prepped = func() { l.prepped(mb) }
		l.free = append(l.free, mb)
	}
	l.pool.EnablePrefixCache = r.cfg.EnablePrefixCache
	l.pool.AllowPipelinedChunks = r.cfg.EnableCPP
	if r.cfg.Observer != nil {
		l.obs = r.cfg.Observer(l.pool, s)
	}
	r.loops = append(r.loops, l)
	return l
}

// serve plays the trace into the first loop, runs the clock dry and
// assembles the Result, which reports schedName and kvCap.
func (r *run) serve(items []workload.Item, schedName string, kvCap int64) (*Result, error) {
	if err := r.validateWorkload(items); err != nil {
		return nil, err
	}
	r.total = len(items)
	// Arrivals run in item order — the items are sorted and equal
	// timestamps run in insertion order — so one callback serves them all.
	in, next := r.loops[0], 0
	arrive := func() {
		it := items[next]
		req := request.New(int64(next), it.Arrival, it.PromptLen, it.OutputLen)
		req.PrefixGroup, req.SharedPrefixLen = it.PrefixGroup, it.SharedPrefixLen
		next++
		in.pool.Add(req)
		in.fill()
	}
	for _, it := range items {
		r.eng.At(it.Arrival, arrive)
	}

	r.eng.Run()
	if r.aborted != nil {
		return nil, r.aborted
	}
	if r.finished != r.total {
		return nil, fmt.Errorf("engine: only %d/%d requests finished (scheduling deadlock?)", r.finished, r.total)
	}
	for _, l := range r.loops {
		if l.obs != nil {
			if err := l.obs.Final(r.eng.Now()); err != nil {
				return nil, err
			}
		}
	}

	makespan := r.lastFinish
	res := &Result{
		SchedulerName:    schedName,
		RuntimeName:      r.cfg.Runtime.Name,
		Requests:         r.total,
		Report:           r.col.Report(makespan),
		Collector:        r.col,
		Injections:       r.injections,
		Makespan:         makespan,
		StageBusy:        r.stageBusy(nil),
		KVCapacityTokens: kvCap,
		KVTransfers:      r.kvTransfers,
		KVTransferBytes:  r.kvTransferBytes,
		TknpCommBytes:    r.tknpCommBytes,
	}
	for _, l := range r.loops {
		res.Preemptions += l.pool.Preemptions()
	}
	if makespan > 0 {
		var busy time.Duration
		for _, b := range res.StageBusy {
			busy += b
		}
		res.BubbleFraction = 1 - float64(busy)/float64(makespan*time.Duration(len(res.StageBusy)))
	}
	return res, nil
}

// validateWorkload rejects traces the deployment can never serve: a request
// larger than the KV cache would deadlock any scheduler. It must fit the last
// pool whole and — when it migrates there — the first up to its first token.
func (r *run) validateWorkload(items []workload.Item) error {
	if err := workload.Validate(items); err != nil {
		return err
	}
	first := r.loops[0].pool.KV.CapacityTokens()
	last := r.loops[len(r.loops)-1].pool.KV.CapacityTokens()
	for i, it := range items {
		if int64(it.PromptLen+1) > first || int64(it.PromptLen+it.OutputLen) > last {
			return fmt.Errorf("engine: request %d (prompt %d, output %d) exceeds the KV capacity of %d tokens (%d where it prefills): %w",
				i, it.PromptLen, it.OutputLen, last, first, ErrModelDoesNotFit)
		}
	}
	return nil
}

// stageBusy appends every loop's per-rank execute time, in loop order.
func (r *run) stageBusy(dst []time.Duration) []time.Duration {
	for _, l := range r.loops {
		dst = l.exec.stageBusy(dst)
	}
	return dst
}

// fill schedules fresh batches into the loop's free slots.
func (l *loop) fill() {
	r := l.run
	if r.aborted != nil {
		return
	}
	now := r.eng.Now()
	if now > maxVirtualTime {
		r.aborted = fmt.Errorf("engine: exceeded %v of simulated time (deadlock, livelock or overload)", maxVirtualTime)
		return
	}
	for len(l.free) > 0 {
		if l.obs != nil {
			l.obs.BeforeSchedule(now)
		}
		b := l.sched.Schedule(l.pool, now)
		if l.obs != nil {
			l.obs.AfterSchedule(b, now)
			if r.aborted = l.obs.Err(); r.aborted != nil {
				return
			}
		}
		if b.Empty() {
			l.pool.PutBatch(b)
			return
		}
		mb := l.free[len(l.free)-1]
		l.free = l.free[:len(l.free)-1]
		r.injections++
		mb.batch, mb.shape, mb.seq = b, b.Shape(), r.injections
		// A coupled runtime queues its prep on the one driver CPU; a
		// decoupled one delays only this batch by its residual.
		mb.prep = r.cfg.Runtime.PrepTime(len(b.Chunks)+len(b.Decodes), mb.shape.Tokens())
		switch {
		case r.cfg.Runtime.Coupled:
			r.driverCPU.Submit(mb.prep, mb.prepped)
		case mb.prep > 0:
			r.cfg.Spans.Record(obs.PrepStage, obs.KindPrep, mb.seq, mb.shape.Tokens(), now, now+mb.prep)
			r.eng.After(mb.prep, mb.prepped)
		default:
			l.exec.execute(mb)
		}
	}
}

// prepped runs when mb's prep charge has elapsed: a coupled runtime's span
// is known only now (the driver CPU may have queued it), a decoupled one's
// was recorded at injection.
func (l *loop) prepped(mb *microBatch) {
	if r := l.run; r.cfg.Runtime.Coupled {
		end := r.eng.Now()
		r.cfg.Spans.Record(obs.PrepStage, obs.KindPrep, mb.seq, mb.shape.Tokens(), end-mb.prep, end)
	}
	l.exec.execute(mb)
}

// retire commits a batch that left the hardware: tokens are committed,
// finished requests observed, the slot freed, the batch handed back to the
// pool once the hooks have seen it, and the loops refilled.
func (l *loop) retire(mb *microBatch) {
	r := l.run
	if r.aborted != nil {
		return
	}
	now, b := r.eng.Now(), mb.batch
	finished := l.pool.Complete(b, now)
	for _, f := range finished {
		r.col.Add(metrics.Observe(f))
		r.finished++
		r.lastFinish = now
	}
	l.free = append(l.free, mb)
	if l.migrate != nil {
		l.migrate(b)
	}
	if l.obs != nil {
		l.obs.AfterComplete(b, finished, now)
		if r.aborted = l.obs.Err(); r.aborted != nil {
			return
		}
	}
	mb.batch = nil
	l.pool.PutBatch(b)
	r.refill(l)
}

// refill fills l's free slots, then every other loop's: what one pool
// retired or released can unblock another.
func (r *run) refill(l *loop) {
	if r.admit != nil {
		r.admit()
	}
	l.fill()
	for _, o := range r.loops {
		if o != l {
			o.fill()
		}
	}
}

package engine

import (
	"fmt"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/metrics"
	"gllm/internal/obs"
	"gllm/internal/request"
	"gllm/internal/sched"
	"gllm/internal/sim"
	"gllm/internal/workload"
)

// The iteration kernel: every engine is one run (clock, arrivals, abort
// guards, collector, Result, the devices' free-at times and busy totals)
// driving one loop per scheduler pool, and contributes only a strategy.
// A window is booked, recorded and followed by the event it leads to in
// one place, as the live driver prices a batch. Event order is the
// contract: sim.Engine breaks timestamp ties by insertion sequence, so the
// order in which fill, retire, refill and the strategies issue At/After
// decides every later scheduling decision (DESIGN.md §9; pinned by
// golden_test.go).

// strategy is an engine's half of the kernel: how a scheduled micro-batch
// occupies hardware time.
type strategy interface {
	// execute prices mb's frozen shape, books it from ready (when its prep
	// ends) on its devices and their run.busy and run.transfer lanes — a
	// chain through Stages.Book, which keeps them — records its spans, and
	// issues the events that lead to mb.ran, when it leaves the hardware.
	execute(mb *microBatch, ready time.Duration)
}

// microBatch is one scheduled batch in flight with its frozen cost shape. A
// loop owns one per slot and reuses it once its batch has retired, so an
// injection allocates no carrier — and no closure: every callback the clock
// is handed for the slot is bound once (ran by addLoop, arrived by the
// chain on first execute) and reads its arguments from the fields below.
type microBatch struct {
	loop  *loop
	batch *sched.Batch // the loop's from Schedule until retire hands it back
	shape gpu.BatchShape
	seq   int // injection ordinal across the run, for span labels

	ran func() // the batch left the hardware: retire

	// The chain's: the stage the batch last entered, its price per layer
	// and what the clock calls when its activations reach the next stage.
	stage   int
	unit    time.Duration
	arrived func()
}

// run is the live state of one simulation.
type run struct {
	cfg  Config
	eng  *sim.Engine
	cost gpu.CostModel
	// cpuFree is when the one driver CPU, which serializes a coupled
	// runtime's prep, is next free (RuntimeModel.BookPrep).
	cpuFree time.Duration
	// busy and transfer are each GPU rank's (span lane's) booked execute
	// and outgoing transfer time, prep the driver's: StageBusy,
	// StageTransfer and PrepTime.
	busy, transfer []time.Duration
	prep           time.Duration
	loops          []*loop
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

// loop drives one scheduler pool's Step under virtual time.
type loop struct {
	*Step[*microBatch]
	run  *run
	exec strategy
	// migrate, when set, sees each retired batch after its finished
	// requests are collected and before AfterComplete (disaggregated
	// prefill → decode hand-off).
	migrate func(b *sched.Batch)
}

// newRun prepares cfg and starts a run's clock over lanes busy lanes.
func newRun(cfg *Config, lanes int) (*run, error) {
	cost, err := cfg.prepare()
	if err != nil {
		return nil, err
	}
	return &run{cfg: *cfg, eng: sim.New(), cost: cost, busy: make([]time.Duration, lanes),
		transfer: make([]time.Duration, lanes), col: new(metrics.Collector)}, nil
}

// addLoop adds a scheduler pool over kvCap tokens of KV cache whose batches,
// at most slots at a time, run on exec.
func (r *run) addLoop(kvCap int64, slots int, s sched.Scheduler, exec strategy) *loop {
	l := &loop{run: r, exec: exec}
	mbs := make([]*microBatch, slots)
	for i := range mbs {
		mb := &microBatch{loop: l}
		mb.ran = func() { l.retire(mb) }
		mbs[i] = mb
	}
	l.Step = NewStep(&r.cfg, kvCap, s, mbs, l.retired)
	r.loops = append(r.loops, l)
	return l
}

// serve plays the trace into the first loop, runs the clock dry and
// assembles the Result, which reports schedName and kvCap.
func (r *run) serve(items []workload.Item, schedName string, kvCap int64) (*Result, error) {
	if err := r.validateWorkload(items); err != nil {
		return nil, err
	}
	if r.cfg.Spans != nil && r.cfg.Spans.Stages() < len(r.busy) {
		return nil, fmt.Errorf("engine: span recorder has %d stages, the run records on %d", r.cfg.Spans.Stages(), len(r.busy))
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
		in.Pool.Add(req)
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
		if err := l.Final(r.eng.Now()); err != nil {
			return nil, err
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
		StageBusy:        r.busy,
		StageTransfer:    r.transfer,
		PrepTime:         r.prep,
		KVCapacityTokens: kvCap,
		KVTransfers:      r.kvTransfers,
		KVTransferBytes:  r.kvTransferBytes,
		TknpCommBytes:    r.tknpCommBytes,
	}
	for _, l := range r.loops {
		res.Preemptions += l.Pool.Preemptions()
	}
	res.BubbleFraction = obs.BubbleRate(res.StageBusy, makespan)
	return res, nil
}

// validateWorkload rejects traces the deployment can never serve: a request
// larger than the KV cache would deadlock any scheduler. It must fit the last
// pool whole and — when it migrates there — the first up to its first token.
func (r *run) validateWorkload(items []workload.Item) error {
	if err := workload.Validate(items); err != nil {
		return err
	}
	first := r.loops[0].Pool.KV.CapacityTokens()
	last := r.loops[len(r.loops)-1].Pool.KV.CapacityTokens()
	for i, it := range items {
		// Each length is compared before they are added, so no sum wraps.
		if int64(it.PromptLen) >= first || int64(it.PromptLen) > last || int64(it.OutputLen) > last-int64(it.PromptLen) {
			return fmt.Errorf("engine: request %d (prompt %d, output %d) exceeds the KV capacity of %d tokens (%d where it prefills): %w",
				i, it.PromptLen, it.OutputLen, last, first, ErrModelDoesNotFit)
		}
	}
	return nil
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
	for {
		mb, b, err := l.Schedule(now)
		if r.aborted = err; err != nil || b == nil {
			return
		}
		r.injections++
		mb.batch, mb.shape, mb.seq = b, b.Shape(), r.injections
		// The prep is booked and recorded now, and the strategy books the
		// batch from when it ends: no event waits it out.
		rt, tokens := &r.cfg.Runtime, mb.shape.Tokens()
		prep := rt.PrepTime(len(b.Chunks)+len(b.Decodes), tokens)
		start := rt.BookPrep(&r.cpuFree, now, prep)
		if prep > 0 {
			r.prep += prep
			r.cfg.Spans.Record(obs.PrepStage, obs.KindPrep, mb.seq, tokens, start, start+prep)
		}
		l.exec.execute(mb, start+prep)
	}
}

// retire commits a batch that left the hardware through the Step, then
// refills the loops.
func (l *loop) retire(mb *microBatch) {
	r := l.run
	if r.aborted != nil {
		return
	}
	b := mb.batch
	mb.batch = nil
	if r.aborted = l.Retire(mb, b, r.eng.Now()); r.aborted != nil {
		return
	}
	r.refill(l)
}

// retired is the kernel's per-member work on a completed batch: finished
// requests are collected, then the migrate hook sees the batch.
func (l *loop) retired(b *sched.Batch, finished []*request.Request) {
	r := l.run
	for _, f := range finished {
		r.col.Add(metrics.Observe(f))
		r.finished++
		r.lastFinish = r.eng.Now()
	}
	if l.migrate != nil {
		l.migrate(b)
	}
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

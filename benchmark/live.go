package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	gllmmetrics "gllm/internal/metrics"
	"gllm/internal/obs"
	gllmrt "gllm/internal/runtime"
)

// liveReq is one request of a live workload's trace.
type liveReq struct {
	promptLen, maxTokens, sharedLen int32
	group                           int64
}

// liveSystem is a started serving stack under test, seen only through the
// surfaces the program already exposes.
type liveSystem struct {
	handler http.Handler
	// request returns the i-th request of the seeded trace (wrapping with
	// fresh prefix groups when the trace is exhausted).
	request func(i int64) liveReq
	// stats aggregates the deployment's runtime snapshot; scrape its
	// incremental metric state.
	stats  func() gllmrt.Snapshot
	scrape func() gllmmetrics.Scrape
	// routed returns accepted submissions per replica (cluster only).
	routed func() []int64
	// router returns the router's retry counters (cluster only).
	router func() (retries429, gaveUp int64)
	// shutdown drains gracefully; verify then checks the drained deployment
	// against the number of requests the generator sent.
	shutdown func(ctx context.Context) error
	verify   func(sent int64) error
	// close aborts everything (used for the repeated, discarded set-ups).
	close func()
	// done is called once per finished stream (cluster audit); may be nil.
	done func(id int64, tokens, want int, ok bool)
}

// liveSpec fixes one closed-loop workload: the client count, the fixed
// warm-up work, and how to build the system from a seed.
type liveSpec struct {
	name    string
	clients int
	// runtimes is how many driver goroutines the deployment runs.
	runtimes int
	// warmup is the number of completed requests after which the measured
	// window opens. Fixed work, so setup_s and live_heap_mb compare across
	// commits.
	warmup int64
	// items is the seeded trace's length before it wraps (0: no trace).
	items int
	build func(seed uint64, items int, tr *tracer) (*liveSystem, error)
}

var (
	textField   = []byte(`"text":`)
	finishField = []byte(`"finish_reason":`)
	finishLen   = []byte(`"finish_reason":"length"`)
	doneChunk   = []byte("data: [DONE]\n\n")
)

// streamWriter is the generator's http.ResponseWriter: it counts token
// chunks, checks the stream's framing, and timestamps the first and last
// token write. One per client, reset per request.
type streamWriter struct {
	header http.Header
	tokens *atomic.Int64 // client-wide delivered-token counter

	status      int
	n           int // tokens of this request
	finishes    int // finish_reason fields seen
	lengths     int // of which "length"
	done        bool
	afterDone   bool // bytes written after [DONE]
	first, last time.Time

	// swallow, when positive, drops that many tokens from the count — the
	// planted fault the self-test uses to prove the correctness gate trips.
	swallow int
}

func (w *streamWriter) reset() {
	for k := range w.header {
		delete(w.header, k)
	}
	w.status, w.n, w.finishes, w.lengths = http.StatusOK, 0, 0, 0
	w.done, w.afterDone = false, false
	w.first, w.last = time.Time{}, time.Time{}
}

func (w *streamWriter) Header() http.Header  { return w.header }
func (w *streamWriter) WriteHeader(code int) { w.status = code }
func (w *streamWriter) Flush()               {}

func (w *streamWriter) Write(p []byte) (int, error) {
	if w.done {
		w.afterDone = true
	}
	n := bytes.Count(p, textField)
	if n > 0 {
		if w.swallow > 0 {
			w.swallow--
			n--
		}
		now := time.Now()
		if w.n == 0 {
			w.first = now
		}
		w.last = now
		w.n += n
		w.tokens.Add(int64(n))
		if f := bytes.Count(p, finishField); f > 0 {
			w.finishes += f
			w.lengths += bytes.Count(p, finishLen)
		}
	} else if bytes.Equal(p, doneChunk) {
		w.done = true
	}
	return len(p), nil
}

// ok applies the per-request correctness gate: 200, exactly max_tokens
// tokens, one finish_reason and it is "length", stream ends in [DONE].
func (w *streamWriter) ok(want int) bool {
	return w.status == http.StatusOK && w.n == want &&
		w.finishes == 1 && w.lengths == 1 && w.done && !w.afterDone
}

// bodyReader is a resettable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// client is one closed-loop client: a goroutine that sends its next request
// only after the previous stream ended. Counters are atomics so the
// controller can snapshot them mid-run.
type client struct {
	tokens    atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	shared    atomic.Int64 // shared-prefix tokens submitted
	ttftNs    []int64      // window samples; read after the client exits
	tpotNs    []int64
	e2eNs     []int64
}

func appendBody(b []byte, r liveReq) []byte {
	b = append(b[:0], `{"prompt_len":`...)
	b = strconv.AppendInt(b, int64(r.promptLen), 10)
	b = append(b, `,"max_tokens":`...)
	b = strconv.AppendInt(b, int64(r.maxTokens), 10)
	b = append(b, `,"stream":true`...)
	if r.group != 0 {
		b = append(b, `,"prefix_group":`...)
		b = strconv.AppendInt(b, r.group, 10)
		b = append(b, `,"shared_prefix_len":`...)
		b = strconv.AppendInt(b, int64(r.sharedLen), 10)
	}
	return append(b, '}')
}

// Phases of a live run, published through loop.phase.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// loop is the shared state of one closed-loop run.
type loop struct {
	sys     *liveSystem
	tr      *tracer
	clients []*client
	next    atomic.Int64 // next trace index
	done    atomic.Int64 // completed requests, all clients
	phase   atomic.Int32
	warmup  int64
	warm    chan struct{} // closed when the warmup-th request completes
	wg      sync.WaitGroup
	fault   int // tokens the first client's writer swallows (self-test)
}

func startLoop(sys *liveSystem, tr *tracer, clients int, warmup int64, fault int) *loop {
	l := &loop{sys: sys, tr: tr, warmup: warmup, warm: make(chan struct{}), fault: fault}
	l.clients = make([]*client, clients)
	for i := range l.clients {
		l.clients[i] = &client{}
	}
	for i, c := range l.clients {
		l.wg.Add(1)
		go l.run(i, c)
	}
	return l
}

func (l *loop) run(idx int, c *client) {
	defer l.wg.Done()
	w := &streamWriter{header: make(http.Header), tokens: &c.tokens}
	if idx == 0 {
		w.swallow = l.fault
	}
	body := &bodyReader{}
	req, err := http.NewRequest(http.MethodPost, "/v1/completions", body)
	if err != nil {
		panic(err) // static method and URL
	}
	var buf []byte
	for l.phase.Load() != phaseStop {
		i := l.next.Add(1) - 1
		r := l.sys.request(i)
		buf = appendBody(buf, r)
		body.Reset(buf)
		w.reset()
		id := uint64(i + 1)
		traced := l.tr != nil
		if traced {
			// The request index doubles as the distributed trace ID, so the
			// decorators below the handler can attribute their spans.
			req.Header.Set(obs.TraceHeader, obs.TraceID(id).Traceparent())
		}
		c.shared.Add(int64(r.sharedLen))
		t0 := time.Now()
		l.sys.handler.ServeHTTP(w, req)
		t1 := time.Now()
		if traced && l.tr.sampled(id) {
			l.tr.add(id, "gen.request", "", t0, t1)
			l.tr.add(id, "server.serve", "gen.request", t0, t1)
		}
		good := w.ok(int(r.maxTokens))
		if l.sys.done != nil {
			l.sys.done(i, w.n, int(r.maxTokens), good)
		}
		if !good {
			c.failed.Add(1)
		}
		c.completed.Add(1)
		if l.phase.Load() == phaseMeasure && good {
			c.ttftNs = append(c.ttftNs, int64(w.first.Sub(t0)))
			c.e2eNs = append(c.e2eNs, int64(t1.Sub(t0)))
			if w.n >= 2 {
				c.tpotNs = append(c.tpotNs, int64(w.last.Sub(w.first))/int64(w.n-1))
			}
		}
		if l.done.Add(1) == l.warmup {
			close(l.warm)
		}
	}
}

// stop ends the loop: clients finish their current stream and exit.
func (l *loop) stop() {
	l.phase.Store(phaseStop)
	l.wg.Wait()
}

// edge is everything read at one edge of the measured window.
type edge struct {
	at                                time.Time
	tokens, completed, failed, shared int64
	mallocs                           uint64
	gcCPU, idleCPU, totalCPU          float64
	liveHeap                          uint64 // HeapAlloc right after a forced GC
	stats                             gllmrt.Snapshot
	scrape                            gllmmetrics.Scrape
	routed                            []int64
	layers                            layerCounts
}

// edge reads the counters. The opening edge collects garbage first, so the
// window starts from a clean heap and live_heap_mb is what fixed warm-up
// work left behind; the closing edge reads the clock and counters first and
// collects afterwards, so the forced collection is outside the window.
func (l *loop) edge(opening bool) edge {
	var e edge
	if opening {
		e.liveHeap = liveHeap()
	}
	e.at = time.Now()
	for _, c := range l.clients {
		e.tokens += c.tokens.Load()
		e.completed += c.completed.Load()
		e.failed += c.failed.Load()
		e.shared += c.shared.Load()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.mallocs = ms.Mallocs
	e.gcCPU, e.idleCPU, e.totalCPU = cpuSeconds()
	e.stats = l.sys.stats()
	if l.tr != nil {
		e.scrape = l.sys.scrape()
		e.layers = l.tr.counts()
		if l.sys.routed != nil {
			e.routed = l.sys.routed()
		}
	}
	if !opening {
		e.liveHeap = liveHeap()
	}
	return e
}

// liveHeap is HeapAlloc after a forced collection. Whatever the still
// running clients allocate during a collection survives it, so the lowest
// of three readings is taken: that floating garbage only ever adds.
func liveHeap() uint64 {
	var ms runtime.MemStats
	low := ^uint64(0)
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		low = min(low, ms.HeapAlloc)
	}
	return low
}

// cpuSeconds reads the Go runtime's cumulative CPU accounting: time spent
// collecting garbage, time the scheduler had nothing to run, and the total
// the process was offered (GOMAXPROCS × wall).
func cpuSeconds() (gc, idle, total float64) {
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(cpu)
	return cpu[0].Value.Float64(), cpu[1].Value.Float64(), cpu[2].Value.Float64()
}

// liveOutcome is one measured window plus the drained system's verdict.
type liveOutcome struct {
	setup             time.Duration
	a, b              edge
	ttft, tpot, e2e   []int64 // sorted window samples, ns
	attempted, failed int64
	errs              []string
	gauges            gaugeStats
	retries429        int64 // router counters at the end (cluster only)
	gaveUp            int64
}

// gaugeStats are the Stats() gauges sampled during a traced window.
type gaugeStats struct {
	n                int
	residentSum      float64
	freeMin, freeSum float64
}

// setUp builds the system, starts the clients, and runs the fixed warm-up.
// The returned duration is one setup_s sample.
func setUp(spec liveSpec, seed uint64, tr *tracer, fault int) (*loop, time.Duration, error) {
	t0 := time.Now()
	sys, err := spec.build(seed, spec.items, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: build: %w", spec.name, err)
	}
	l := startLoop(sys, tr, spec.clients, spec.warmup, fault)
	<-l.warm
	return l, time.Since(t0), nil
}

// setupRepeats is how many times an untraced run sets the system up;
// setup_s is the median, and the last set-up is the one measured.
const setupRepeats = 5

// runLive measures one closed-loop window of the given length.
func runLive(spec liveSpec, seed uint64, window time.Duration, tr *tracer, repeats, fault int) (*liveOutcome, error) {
	var setups []time.Duration
	var l *loop
	for i := 0; i < repeats; i++ {
		// Only the measured set-up carries the tracer: discarded ones would
		// pollute its counters.
		var t *tracer
		if i == repeats-1 {
			t = tr
		}
		var d time.Duration
		var err error
		if l, d, err = setUp(spec, seed, t, fault); err != nil {
			return nil, err
		}
		setups = append(setups, d)
		if i < repeats-1 {
			l.stop()
			l.sys.close()
		}
	}
	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
	out := &liveOutcome{setup: setups[len(setups)/2]}

	out.a = l.edge(true)
	l.phase.Store(phaseMeasure)
	var sampler *gaugeSampler
	if tr != nil {
		sampler = startGaugeSampler(l.sys)
	}
	time.Sleep(window)
	l.phase.Store(phaseWarm) // stop sampling latencies; clients keep the load on
	out.b = l.edge(false)
	if sampler != nil {
		out.gauges = sampler.stop()
	}
	l.stop()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := l.sys.shutdown(ctx); err != nil {
		out.errs = append(out.errs, fmt.Sprintf("shutdown: %v", err))
	}
	for _, c := range l.clients {
		out.attempted += c.completed.Load()
		out.failed += c.failed.Load()
		out.ttft = append(out.ttft, c.ttftNs...)
		out.tpot = append(out.tpot, c.tpotNs...)
		out.e2e = append(out.e2e, c.e2eNs...)
	}
	if err := l.sys.verify(out.attempted); err != nil {
		out.errs = append(out.errs, err.Error())
	}
	if l.sys.router != nil {
		out.retries429, out.gaveUp = l.sys.router()
	}
	for _, s := range [][]int64{out.ttft, out.tpot, out.e2e} {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	return out, nil
}

// quantile returns the q-quantile of sorted samples (nearest rank below).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))])
}

// gaugeSampler polls Stats() during a traced window for the gauges that
// have no counter form (residency, KV free rate).
type gaugeSampler struct {
	quit chan struct{}
	done chan gaugeStats
}

func startGaugeSampler(sys *liveSystem) *gaugeSampler {
	g := &gaugeSampler{quit: make(chan struct{}), done: make(chan gaugeStats, 1)}
	go func() {
		st := gaugeStats{freeMin: 1}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.quit:
				g.done <- st
				return
			case <-tick.C:
				s := sys.stats()
				st.n++
				st.residentSum += float64(s.Resident)
				st.freeSum += s.KVFreeRate
				if s.KVFreeRate < st.freeMin {
					st.freeMin = s.KVFreeRate
				}
			}
		}
	}()
	return g
}

func (g *gaugeSampler) stop() gaugeStats {
	close(g.quit)
	return <-g.done
}

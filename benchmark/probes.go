package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"gllm/internal/cluster"
	"gllm/internal/experiments"
	"gllm/internal/gpu"
	"gllm/internal/kvcache"
	"gllm/internal/metrics"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/request"
	gllmrt "gllm/internal/runtime"
	"gllm/internal/sched"
	"gllm/internal/server"
	"gllm/internal/sim"
	"gllm/internal/sse"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// Probes: short isolated loops over one layer's public functions, run once
// per traced run. Each returns its metrics by name; none opens a socket
// except the remote-transport probe, which is the ledger entry for the
// HTTP/SSE hop no workload crosses.

// sink keeps results alive so the compiler cannot drop the probed calls.
var sink int64

func perOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// scaled shortens a probe's iteration count for the self-test.
func scaled(n, div int) int { return max(n/div, 1) }

// discardWriter is the cheapest possible streaming ResponseWriter.
type discardWriter struct {
	header http.Header
	bytes  int64
	writes int64
}

func (w *discardWriter) Header() http.Header { return w.header }
func (w *discardWriter) WriteHeader(int)     {}
func (w *discardWriter) Flush()              {}
func (w *discardWriter) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	w.writes++
	return len(p), nil
}

// stubBackend hands out pre-fed proxy handles: the server sees a backend
// whose tokens are already there, so ServeHTTP's own cost is what is left.
type stubBackend struct{ handles chan *gllmrt.Handle }

func (b stubBackend) Submit(context.Context, server.SubmitRequest) (*gllmrt.Handle, error) {
	return <-b.handles, nil
}
func (stubBackend) Stats() gllmrt.Snapshot { return gllmrt.Snapshot{Health: gllmrt.HealthOK} }
func (stubBackend) Scrape() metrics.Scrape { return metrics.Scrape{} }

// fedHandle returns a finished stream of n tokens. A handle holds one
// pending slab, so a pre-fed stream arrives in a single Next: the probe
// prices encoding, not per-slab writes (server.writes_per_token says so).
func fedHandle(id int64, n int) *gllmrt.Handle {
	h, f := gllmrt.NewProxyHandle(id, nil)
	evs := make([]gllmrt.TokenEvent, 0, n)
	for i := 0; i < n; i++ {
		tok := gllmrt.TokenValue(id, i)
		ev := gllmrt.TokenEvent{ReqID: id, Index: i, Token: tok, Text: gllmrt.TokenText(tok)}
		if i == n-1 {
			ev.Finished, ev.Reason = true, gllmrt.FinishLength
		}
		evs = append(evs, ev)
	}
	f.Deliver(evs...)
	f.Close(gllmrt.FinishLength)
	return h
}

// serveStub times ServeHTTP over rounds×perRound pre-fed streams of
// tokens each; handle construction is outside the timed region.
func serveStub(tokens, rounds, perRound int) (ns time.Duration, w *discardWriter) {
	be := stubBackend{handles: make(chan *gllmrt.Handle, perRound)}
	srv := server.NewBackend(be, "bench-model")
	w = &discardWriter{header: make(http.Header)}
	body := []byte(fmt.Sprintf(`{"prompt_len":128,"max_tokens":%d,"stream":true}`, tokens))
	rd := &bodyReader{}
	req, err := http.NewRequest(http.MethodPost, "/v1/completions", rd)
	if err != nil {
		panic(err)
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			be.handles <- fedHandle(int64(r*perRound+i), tokens)
		}
		t0 := time.Now()
		for i := 0; i < perRound; i++ {
			rd.Reset(body)
			srv.ServeHTTP(w, req)
		}
		ns += time.Since(t0)
	}
	return ns, w
}

func probeServer(m map[string]float64, div int) {
	const tokens, perRound = 256, 256
	rounds := scaled(8, div)
	ns, w := serveStub(tokens, rounds, perRound)
	n := tokens * rounds * perRound
	m["server.serve_ns_per_token"] = perOp(ns, n)
	m["server.bytes_per_token"] = float64(w.bytes) / float64(n)
	m["server.writes_per_token"] = float64(w.writes) / float64(n)
	ns, _ = serveStub(1, rounds, 4096)
	m["server.serve_ns_per_req"] = perOp(ns, rounds*4096)
}

// probeGenerator runs the closed-loop generator against a handler that
// writes a canned one-token stream: what is left is the generator itself.
func probeGenerator(m map[string]float64, div int) {
	canned := []byte(`data: {"id":"cmpl-1","object":"text_completion","created":1,"model":"m","choices":[{"text":" the","index":0,"finish_reason":"length"}]}` + "\n\n")
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(canned)
		_, _ = w.Write(doneChunk)
	})
	sys := &liveSystem{
		handler: h,
		request: func(int64) liveReq { return liveReq{promptLen: 8, maxTokens: 1} },
		stats:   func() gllmrt.Snapshot { return gllmrt.Snapshot{} },
	}
	n := scaled(200_000, div)
	l := startLoop(sys, nil, 1, int64(n), 0)
	t0 := time.Now()
	<-l.warm
	d := time.Since(t0)
	l.stop()
	m["gen.self_ns_per_req"] = perOp(d, n)
	m["gen.timer_floor_us"] = timerFloor(scaled(200, div))
}

// timerFloor is the median wall time of time.Sleep(50µs): how late the
// kernel timer fires here, and why the live workloads sleep nowhere.
func timerFloor(n int) float64 {
	ds := make([]int64, n)
	for i := range ds {
		t0 := time.Now()
		time.Sleep(50 * time.Microsecond)
		ds[i] = int64(time.Since(t0))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return quantile(ds, 0.5) / 1e3
}

func probeRuntimeConfig() gllmrt.Config {
	return gllmrt.Config{
		Model: model.Qwen25_14B, GPU: gpu.L20, Topo: network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(), Async: true,
		QueueDepth: 4096, AdmitKVFactor: -1, WatchdogTimeout: -1,
	}
}

// probeRuntime drives 16 streams straight into one runtime, once through
// slab delivery (SubmitBatchedSpec + Handle.Next) and once through the
// per-token channel path (Submit + Events) that ROADMAP 3a wants to retire.
func probeRuntime(m map[string]float64, div int) error {
	const streams = 16
	perStream := scaled(64, div)
	run := func(drain func(rt *gllmrt.Runtime) (int, error)) (float64, error) {
		rt, err := gllmrt.Start(probeRuntimeConfig())
		if err != nil {
			return 0, err
		}
		defer rt.Close()
		var wg sync.WaitGroup
		var mu sync.Mutex
		var total int
		var first error
		t0 := time.Now()
		for s := 0; s < streams; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perStream; i++ {
					n, err := drain(rt)
					mu.Lock()
					total += n
					if err != nil && first == nil {
						first = err
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return perOp(time.Since(t0), total), first
	}
	var err error
	m["runtime.ns_per_token_direct"], err = run(func(rt *gllmrt.Runtime) (int, error) {
		h, err := rt.SubmitBatchedSpec(context.Background(), gllmrt.SubmitSpec{PromptLen: decodePrompt, MaxTokens: decodeTokens})
		if err != nil {
			return 0, err
		}
		n := 0
		for evs := h.Next(context.Background()); evs != nil; evs = h.Next(context.Background()) {
			n += len(evs)
		}
		return n, nil
	})
	if err != nil {
		return fmt.Errorf("runtime probe (slab): %w", err)
	}
	m["runtime.chan_ns_per_token"], err = run(func(rt *gllmrt.Runtime) (int, error) {
		h, err := rt.Submit(decodePrompt, decodeTokens)
		if err != nil {
			return 0, err
		}
		n := 0
		for range h.Events {
			n++
		}
		return n, nil
	})
	if err != nil {
		return fmt.Errorf("runtime probe (channel): %w", err)
	}
	return nil
}

// probeSched times Schedule+Complete with r decoding residents: the walk
// ROADMAP calls the suspected next hot spot.
func probeSched(m map[string]float64, div int) {
	for _, p := range []struct {
		name      string
		residents int
	}{{"sched.schedule_ns_r10", 10}, {"sched.schedule_ns_r1k", 1000}, {"sched.schedule_ns_r10k", 10000}} {
		const prompt, output = 64, 1 << 20
		kv := kvcache.New(int64(p.residents)*4096, 16)
		pool := sched.NewPool(kv, 4)
		for i := 0; i < p.residents; i++ {
			pool.Add(request.New(int64(i), 0, prompt, output))
		}
		s := sched.NewDefaultThrottle()
		step := func() {
			b := s.Schedule(pool, 0)
			pool.Complete(b, 0)
			pool.PutBatch(b)
		}
		for pool.PrefillQueueLen() > 0 {
			step()
		}
		iters := scaled(2000, div)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			step()
		}
		m[p.name] = perOp(time.Since(t0), iters)
	}
}

func probeKV(m map[string]float64, div int) {
	const blocks, bs, seqTokens = 1 << 14, 16, 512
	iters := scaled(200_000, div)
	kv := kvcache.New(blocks*bs, bs)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := kv.Allocate(1, seqTokens); err != nil {
			panic(err) // an empty cache holds one sequence
		}
		kv.Free(1)
	}
	m["kvcache.alloc_free_ns"] = perOp(time.Since(t0), iters)

	// Saturate the cache with cache-only prefix blocks, then keep
	// allocating: every block claimed is evicted first, and registering the
	// sequence's own blocks before freeing it keeps the cache saturated.
	kv = kvcache.New(blocks*bs, bs)
	cycle := func(group int64) {
		id := kvcache.SeqID(group)
		if err := kv.Allocate(id, seqTokens); err != nil {
			panic(err) // cache-only blocks count as free
		}
		kv.RegisterPrefix(id, group, seqTokens)
		kv.Free(id)
	}
	group := int64(1)
	for ; group <= blocks*bs/seqTokens; group++ {
		cycle(group)
	}
	ev0 := kv.Evictions()
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		cycle(group)
		group++
	}
	m["kvcache.evict_alloc_ns"] = perOp(time.Since(t0), iters)
	sink += int64(kv.Evictions() - ev0)

	kv = kvcache.New(blocks*bs, bs)
	cycle(7)
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		sink += int64(kv.AttachPrefix(1, 7, seqTokens))
		kv.Free(1)
	}
	m["kvcache.attach_prefix_ns"] = perOp(time.Since(t0), iters)
}

func probeGPU(m map[string]float64, div int) {
	cm := gpu.NewCostModel(model.Qwen25_14B, gpu.L20)
	shapes := []gpu.BatchShape{
		{DecodeTokens: 16, DecodeCtxSum: 16 * 300},
		{PrefillTokens: 2048, PrefillCtxSum: gpu.PrefillChunkCtxSum(0, 2048)},
		{PrefillTokens: 512, PrefillCtxSum: gpu.PrefillChunkCtxSum(1024, 512), DecodeTokens: 200, DecodeCtxSum: 200 * 1500},
	}
	iters := scaled(1_000_000, div)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		sink += int64(cm.StageTime(shapes[i%len(shapes)], 12))
	}
	m["gpu.stage_time_ns"] = perOp(time.Since(t0), iters)
}

func probeMetrics(m map[string]float64, div int) {
	n := scaled(1_000_000, div)
	var c metrics.Collector
	rec := metrics.Record{TTFT: 30 * time.Millisecond, TPOT: 20 * time.Millisecond, E2E: time.Second,
		Queue: time.Millisecond, PromptTokens: 100, OutputTokens: 13, FinishReason: "length"}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		rec.ID = int64(i)
		c.Add(rec)
	}
	m["metrics.observe_ns"] = perOp(time.Since(t0), n)
	t0 = time.Now()
	sc := c.Scrape()
	m["metrics.scrape_us_1m"] = float64(time.Since(t0).Nanoseconds()) / 1e3
	sink += sc.OutputTokens
	t0 = time.Now()
	rep := c.Report(time.Second)
	m["metrics.report_ms_1m"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	sink += int64(rep.Requests)
}

func probeSim(m map[string]float64, div int) {
	const length = 5000
	chains := scaled(200, div)
	t0 := time.Now()
	for c := 0; c < chains; c++ {
		e := sim.New()
		count := 0
		var next func()
		next = func() {
			if count++; count < length {
				e.At(e.Now()+time.Microsecond, next)
			}
		}
		e.At(0, next)
		e.Run()
		sink += int64(e.Executed())
	}
	m["sim.events_per_s"] = float64(chains*length) / time.Since(t0).Seconds()
}

func probeWorkload(m map[string]float64, div int) {
	t0 := time.Now()
	items := workload.Conversations(stats.NewRNG(1), workload.ConversationSpec{
		Dataset: experiments.ChatLite, Rate: 12, Window: time.Duration(scaled(4*3600, div)) * time.Second,
		MaxTurns: 6, ThinkMean: 30 * time.Second, FollowUpLen: 24, MaxContext: 1024,
	})
	m["workload.gen_items_per_s"] = float64(len(items)) / time.Since(t0).Seconds()
}

func probeSSE(m map[string]float64, div int) {
	// Record one real 256-token stream, then parse it repeatedly.
	be := stubBackend{handles: make(chan *gllmrt.Handle, 1)}
	be.handles <- fedHandle(1, 256)
	rec := &recordWriter{header: make(http.Header)}
	req, err := http.NewRequest(http.MethodPost, "/v1/completions",
		strings.NewReader(`{"prompt_len":8,"max_tokens":256,"stream":true}`))
	if err != nil {
		panic(err)
	}
	server.NewBackend(be, "bench-model").ServeHTTP(rec, req)
	stream := rec.buf.Bytes()
	rounds := scaled(400, div)
	events := 0
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		rd := sse.NewReader(bytes.NewReader(stream))
		for {
			s, err := rd.Next()
			if err != nil {
				break
			}
			sink += int64(len(s))
			events++
		}
	}
	m["sse.reader_ns_per_event"] = perOp(time.Since(t0), events)
}

type recordWriter struct {
	header http.Header
	buf    bytes.Buffer
}

func (w *recordWriter) Header() http.Header         { return w.header }
func (w *recordWriter) WriteHeader(int)             {}
func (w *recordWriter) Flush()                      {}
func (w *recordWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

func probeObs(m map[string]float64, div int) {
	n := scaled(2_000_000, div)
	for _, p := range []struct {
		name string
		rec  *obs.Recorder
	}{{"obs.record_ns_on", obs.NewRecorder(4, 0)}, {"obs.record_ns_off", nil}} {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			p.rec.Record(i&3, obs.KindExec, i, 16, time.Duration(i), time.Duration(i+1))
		}
		m[p.name] = perOp(time.Since(t0), n)
	}
}

// probeRemote measures the HTTP/SSE hop: cluster.NewRemote against a
// loopback listener serving server.New(rt), two concurrent streams.
func probeRemote(m map[string]float64, div int) error {
	m["cluster.remote_first_slab_us_p50"], m["cluster.remote_ns_per_token"] = 0, 0
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		// No loopback in this sandbox: the ledger entry stays empty rather
		// than failing the whole run.
		fmt.Fprintf(os.Stderr, "remote probe skipped: %v\n", err)
		return nil
	}
	rt, err := gllmrt.Start(probeRuntimeConfig())
	if err != nil {
		ln.Close()
		return err
	}
	defer rt.Close()
	hs := &http.Server{Handler: server.New(rt, "bench-model")}
	served := make(chan struct{})
	go func() { _ = hs.Serve(ln); close(served) }()
	defer func() { _ = hs.Close(); <-served }()

	remote, err := cluster.NewRemote(cluster.RemoteConfig{BaseURL: "http://" + ln.Addr().String()})
	if err != nil {
		return err
	}
	defer remote.Close()
	const streams = 2
	perStream := scaled(40, div)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firsts []int64
	var tokens int
	var first error
	t0 := time.Now()
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < perStream; i++ {
				start := time.Now()
				h, err := remote.SubmitBatchedSpec(ctx, gllmrt.SubmitSpec{PromptLen: decodePrompt, MaxTokens: decodeTokens})
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
				n, slab := 0, int64(0)
				for evs := h.Next(ctx); evs != nil; evs = h.Next(ctx) {
					if n == 0 {
						slab = int64(time.Since(start))
					}
					n += len(evs)
				}
				mu.Lock()
				firsts = append(firsts, slab)
				tokens += n
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	d := time.Since(t0)
	if first != nil {
		return fmt.Errorf("remote probe: %w", first)
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	m["cluster.remote_first_slab_us_p50"] = quantile(firsts, 0.5) / 1e3
	m["cluster.remote_ns_per_token"] = perOp(d, tokens)
	return nil
}

// probeSet runs the probes once per process, on first use: after the first
// workload's windows, so they disturb neither its numbers nor its peak RSS.
type probeSet struct {
	// div divides every probe's iteration count (0 or 1: full length; the
	// self-test uses a large divisor).
	div int
	m   map[string]float64
}

func (p *probeSet) get() (map[string]float64, error) {
	if p.m != nil {
		return p.m, nil
	}
	fmt.Println("running layer probes ...")
	m, err := runProbes(max(p.div, 1))
	if err != nil {
		return nil, err
	}
	p.m = m
	return m, nil
}

// runProbes runs every probe once and returns their metrics.
func runProbes(div int) (map[string]float64, error) {
	m := make(map[string]float64)
	probeServer(m, div)
	probeGenerator(m, div)
	probeSched(m, div)
	probeKV(m, div)
	probeGPU(m, div)
	probeMetrics(m, div)
	probeSim(m, div)
	probeWorkload(m, div)
	probeSSE(m, div)
	probeObs(m, div)
	if err := probeRuntime(m, div); err != nil {
		return m, err
	}
	if err := probeRemote(m, div); err != nil {
		return m, err
	}
	runtime.GC() // drop the probes' garbage (1 M records) before anything else runs
	return m, nil
}

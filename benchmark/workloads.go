package main

import (
	"errors"
	"fmt"
	"time"

	"gllm/internal/cluster"
	"gllm/internal/experiments"
	"gllm/internal/gpu"
	"gllm/internal/metrics"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/obs"
	gllmrt "gllm/internal/runtime"
	"gllm/internal/sched"
	"gllm/internal/server"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// The frozen work counts. Later issues cite the workload names; the
// numbers below are part of the benchmark's definition (README.md gives
// the reason for each).
const (
	decodeClients = 16
	decodePrompt  = 128
	decodeTokens  = 256
	decodeWarmup  = 320 // requests ≈ 82 k tokens

	chatReplicas = 3
	chatClients  = 1024
	chatWarmup   = 40_000
	chatItems    = 200_000 // trace length before it wraps

	longClients = 2048
	longWarmup  = 3_000
	longItems   = 60_000
)

func liveSpecs() []liveSpec {
	return []liveSpec{
		{name: "decode_stream", clients: decodeClients, runtimes: 1, warmup: decodeWarmup, build: buildDecodeStream},
		{name: "cluster_chat", clients: chatClients, runtimes: chatReplicas, warmup: chatWarmup, items: chatItems, build: buildClusterChat},
		{name: "long_prompt", clients: longClients, runtimes: 1, warmup: longWarmup, items: longItems, build: buildLongPrompt},
	}
}

// scheduler returns the evaluated Token Throttling policy, timed when the
// run is traced.
func scheduler(tr *tracer) sched.Scheduler {
	s := sched.Scheduler(sched.NewDefaultThrottle())
	if tr != nil {
		s = timedScheduler{inner: s, tr: tr}
	}
	return s
}

// traceConfig switches the program's own recorders on for a traced run, so
// obs.trace_overhead_share measures what ROADMAP 5d budgets.
func traceConfig(cfg *gllmrt.Config, tr *tracer) {
	if tr != nil {
		cfg.Spans = obs.NewRecorder(cfg.Topo.GPUs(), 0)
		cfg.ReqSpans = obs.NewReqRecorder(0)
	}
}

// singleRuntime fronts one runtime with the HTTP handler and the
// post-drain checks every live workload shares.
func singleRuntime(cfg gllmrt.Config, tr *tracer, request func(int64) liveReq) (*liveSystem, error) {
	cfg.Scheduler = scheduler(tr)
	traceConfig(&cfg, tr)
	rt, err := gllmrt.Start(cfg)
	if err != nil {
		return nil, err
	}
	var srv *server.Server
	if tr != nil {
		srv = server.NewBackend(timedBackend{runtimeBackend{rt}, tr}, "bench-model")
		srv.EnableRequestTracing(obs.NewReqRecorder(0), obs.SideReplica)
	} else {
		srv = server.New(rt, "bench-model")
	}
	return &liveSystem{
		handler:  srv,
		request:  request,
		stats:    rt.Stats,
		scrape:   func() metrics.Scrape { return rt.Metrics().Scrape() },
		shutdown: rt.Shutdown,
		close:    func() { _ = rt.Close() },
		verify: func(sent int64) error {
			return verifyDrained("runtime", rt.Stats(), sent)
		},
	}, nil
}

// verifyDrained checks a gracefully shut-down runtime: it finished exactly
// what was sent, nothing is resident, and every KV block is allocatable
// again (FreeBlocks counts cache-only prefix blocks, so a leak is any
// shortfall against the total).
func verifyDrained(name string, st gllmrt.Snapshot, sent int64) error {
	var errs []error
	if int64(st.Finished) != sent {
		errs = append(errs, fmt.Errorf("%s: finished %d of %d requests sent", name, st.Finished, sent))
	}
	if st.Cancelled != 0 || st.Resident != 0 || st.InFlight != 0 {
		errs = append(errs, fmt.Errorf("%s: %d cancelled, %d resident, %d in flight after drain",
			name, st.Cancelled, st.Resident, st.InFlight))
	}
	if st.KVFreeBlocks != st.KVTotalBlocks {
		errs = append(errs, fmt.Errorf("%s: KV leak: %d of %d blocks free after drain",
			name, st.KVFreeBlocks, st.KVTotalBlocks))
	}
	return errors.Join(errs...)
}

// buildDecodeStream is internal/server's steady-state benchmark as a
// workload: 16 streams of 256 tokens, nothing but the per-token path.
func buildDecodeStream(_ uint64, _ int, tr *tracer) (*liveSystem, error) {
	return singleRuntime(gllmrt.Config{
		Model:           model.Qwen25_14B,
		GPU:             gpu.L20,
		Topo:            network.IntraNode(4, network.PCIe),
		Async:           true,
		TimeScale:       0,
		QueueDepth:      4096,
		AdmitKVFactor:   -1,
		WatchdogTimeout: -1,
	}, tr, func(int64) liveReq {
		return liveReq{promptLen: decodePrompt, maxTokens: decodeTokens}
	})
}

// conversationTrace synthesizes n multi-turn items in arrival order and
// returns the i-th-request function: when the trace is exhausted it wraps
// with fresh prefix groups, so no group ever reappears.
func conversationTrace(seed uint64, spec workload.ConversationSpec, n int) func(int64) liveReq {
	// Conversations start at spec.Rate per modelled second and average
	// about three turns, so this window yields roughly n items.
	spec.Window = time.Duration(float64(n) / (3 * spec.Rate) * float64(time.Second))
	items := workload.Conversations(stats.NewRNG(seed), spec)
	for len(items) < n {
		spec.Window *= 2
		items = workload.Conversations(stats.NewRNG(seed), spec)
	}
	// Keep a compact copy: the generator's own memory should be small next
	// to the program's in live_heap_mb.
	reqs := make([]liveReq, n)
	var groups int64
	for i, it := range items[:n] {
		reqs[i] = liveReq{int32(it.PromptLen), int32(it.OutputLen), int32(it.SharedPrefixLen), it.PrefixGroup}
		if it.PrefixGroup > groups {
			groups = it.PrefixGroup
		}
	}
	return func(i int64) liveReq {
		r := reqs[i%int64(n)]
		r.group += (i / int64(n)) * groups
		return r
	}
}

// buildClusterChat is the unpaced version of experiments.ClusterRouting's
// day: same corpus, conversation shape, replica deployment and retry
// policy, replayed as fast as the router sustains.
func buildClusterChat(seed uint64, items int, tr *tracer) (*liveSystem, error) {
	request := conversationTrace(seed, workload.ConversationSpec{
		Dataset:     experiments.ChatLite,
		Rate:        12,
		MaxTurns:    6,
		ThinkMean:   30 * time.Second,
		FollowUpLen: 24,
		MaxContext:  1024,
	}, items)

	var policy cluster.Policy = cluster.NewPrefixAffinity(nil)
	cfg := cluster.Config{
		Retry: cluster.RetryPolicy{
			MaxAttempts: 4,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			Budget:      2 * time.Second,
		},
		Seed: seed,
	}
	if tr != nil {
		policy = &timedPolicy{inner: policy, tr: tr, home: make(map[int64]string)}
		cfg.ReqSpans = obs.NewReqRecorder(0)
	}
	cfg.Policy = policy
	router := cluster.New(cfg)
	for i := 0; i < chatReplicas; i++ {
		rc := gllmrt.Config{
			Model:             model.Qwen25_14B,
			GPU:               gpu.L20,
			Topo:              network.IntraNode(2, network.PCIe),
			Scheduler:         scheduler(tr),
			Async:             true,
			EnablePrefixCache: true,
			TimeScale:         0,
		}
		traceConfig(&rc, tr)
		rt, err := gllmrt.Start(rc)
		if err != nil {
			_ = router.Close()
			return nil, err
		}
		var eng cluster.Engine = rt
		if tr != nil {
			eng = timedEngine{rt, tr}
		}
		if _, err := router.Add(fmt.Sprintf("r%d", i), eng); err != nil {
			_ = rt.Close()
			_ = router.Close()
			return nil, err
		}
	}
	var be server.Backend = routerBackend{router}
	if tr != nil {
		be = timedBackend{be, tr}
	}
	srv := server.NewBackend(be, "bench-model")
	if tr != nil {
		srv.EnableRequestTracing(cfg.ReqSpans, obs.SideRouter)
	}
	replicas := router.Replicas()
	audit := new(cluster.Audit)
	return &liveSystem{
		handler: srv,
		request: request,
		stats:   router.Stats,
		scrape:  router.Scrape,
		routed: func() []int64 {
			out := make([]int64, len(replicas))
			for i, r := range replicas {
				out[i] = r.Routed()
			}
			return out
		},
		router:   func() (int64, int64) { return router.Retries429(), router.GaveUp() },
		shutdown: router.Shutdown,
		close:    func() { _ = router.Close() },
		done: func(id int64, tokens, want int, ok bool) {
			reason := gllmrt.FinishLength
			if !ok {
				reason = "" // the audit reports it as a stream without a terminal reason
			}
			audit.StreamDone(id, tokens, want, reason)
		},
		verify: func(sent int64) error {
			errs := []error{audit.Verify(sent, replicas)}
			if n := router.GaveUp(); n != 0 {
				errs = append(errs, fmt.Errorf("router gave up on %d submissions", n))
			}
			return errors.Join(errs...)
		},
	}, nil
}

// buildLongPrompt keeps thousands of Azure-shaped conversations resident on
// one 32B deployment, so the scheduler walk, chunked prefill and KV
// allocation under the throttle's UT term do the work.
func buildLongPrompt(seed uint64, items int, tr *tracer) (*liveSystem, error) {
	ds := workload.Azure
	ds.OutMax = 256
	request := conversationTrace(seed, workload.ConversationSpec{
		Dataset:     ds,
		Rate:        4,
		MaxTurns:    4,
		ThinkMean:   30 * time.Second,
		FollowUpLen: 40,
		MaxContext:  8192,
	}, items)
	return singleRuntime(gllmrt.Config{
		Model:             model.Qwen25_32B,
		GPU:               gpu.L20,
		Topo:              network.IntraNode(4, network.PCIe),
		Async:             true,
		EnablePrefixCache: true,
		TimeScale:         0,
		// 2048 parked clients must never be refused: the workload measures
		// the resident-set path, not admission.
		QueueDepth:      4096,
		AdmitKVFactor:   -1,
		WatchdogTimeout: -1,
	}, tr, request)
}

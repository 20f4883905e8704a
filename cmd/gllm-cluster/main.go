// Command gllm-cluster serves the OpenAI-compatible frontend from a
// cluster of in-process replica runtimes behind a routing policy — the
// load-balancer-over-replicas layer above gllm-server:
//
//	gllm-cluster -port 8000 -replicas 3 -policy prefix
//
// Every replica is a full gLLM runtime (own driver, pipeline, KV cache,
// admission control); the router spreads completions across them, retries
// backpressure (429) rejections with capped jittered backoff, and keeps
// serving through replica drains:
//
//	curl -s localhost:8000/cluster/stats | jq .
//	curl -s -X POST 'localhost:8000/cluster/drain?id=r1'
//	curl -s -X POST 'localhost:8000/cluster/replace?id=r2'
//	gllm-cluster -pprof                  # /debug/pprof/ profiling endpoints
//
// -selfcheck boots a 3-replica cluster on a loopback port, runs concurrent
// multi-turn prefix-group traffic through the full HTTP/SSE path, drains a
// replica mid-flight through the admin endpoint, and exits 0 only if every
// stream delivered exactly its requested tokens and no replica leaked KV.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"gllm/internal/client"
	"gllm/internal/cluster"
	"gllm/internal/core"
	"gllm/internal/gpu"
	"gllm/internal/metrics"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/profiling"
	"gllm/internal/runtime"
	"gllm/internal/sched"
	"gllm/internal/server"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

func main() {
	var (
		port      = flag.Int("port", 8000, "listen port")
		replicas  = flag.Int("replicas", 3, "replica runtimes to start")
		policy    = flag.String("policy", "prefix", "routing policy: random, round-robin, least-kv, prefix")
		modelPath = flag.String("model-path", "Qwen2.5-14B", "model name (paper flag --model-path)")
		pp        = flag.Int("pp", 2, "pipeline parallel degree per replica")
		gpuName   = flag.String("gpu", "L20-48GB", "GPU type")
		memUtil   = flag.Float64("gpu-memory-util", 0.9, "GPU memory utilization")
		schedName = flag.String("sched", "gllm", "scheduler: gllm, sarathi, gllm-no-wt, gllm-no-ut, gllm-ck")
		budget    = flag.Int("token-budget", 2048, "Sarathi token budget")
		timeScale = flag.Float64("time-scale", 0, "emulated GPU time scale (0 = no sleeping)")
		prefix    = flag.Bool("enable-prefix-cache", true, "reuse KV across requests sharing a prefix group")

		retryAttempts = flag.Int("retry-attempts", 4, "submission attempts before giving up (429 → retry)")
		retryBase     = flag.Duration("retry-base", 5*time.Millisecond, "backoff base delay")
		retryMax      = flag.Duration("retry-max", time.Second, "backoff cap (Retry-After hints may exceed it)")
		retryBudget   = flag.Duration("retry-budget", 10*time.Second, "total time budget across attempts")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second,
			"graceful window for /cluster/drain and shutdown before in-flight work is aborted")
		seed      = flag.Uint64("seed", 20250704, "router jitter seed")
		logLevel  = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		selfcheck = flag.Bool("selfcheck", false,
			"boot 3 replicas on a loopback port, serve prefix-group traffic, drain one mid-flight, verify zero dropped tokens, exit")

		probeInterval = flag.Duration("probe-interval", 250*time.Millisecond,
			"health-probe period for remote replicas")
		probeFailures = flag.Int("probe-failures", 3,
			"consecutive probe failures before a remote replica reads unreachable")
		connectTimeout = flag.Duration("connect-timeout", 2*time.Second,
			"per-attempt connect timeout for remote submissions and probes")
		selfcheckRemote = flag.Bool("selfcheck-remote", false,
			"spawn 2 gllm-server processes (-server-bin) plus 1 in-process replica behind one router, drain one remote mid-flight, kill the other mid-stream, verify recovery, exit")
		serverBin = flag.String("server-bin", "",
			"path to a gllm-server binary for -selfcheck-remote / -selfcheck-trace")
		traceOut = flag.String("trace-out", "",
			"write the merged cross-process request trace (Chrome trace JSON) here on exit")
		pprofOn = flag.Bool("pprof", false,
			"expose net/http/pprof profiling handlers under /debug/pprof/")
		selfcheckTrace = flag.Bool("selfcheck-trace", false,
			"spawn 2 gllm-server processes (-server-bin), route one traced request through the full HTTP path, write the merged trace to -trace-out, verify the federated /metrics, exit")
	)
	var remotes []string
	flag.Func("replica",
		"remote replica endpoint (repeatable), e.g. -replica http://10.0.0.7:8000; mixes with -replicas in-process runtimes",
		func(v string) error {
			remotes = append(remotes, v)
			return nil
		})
	flag.Parse()
	if err := run(clusterOptions{
		port: *port, replicas: *replicas, policy: *policy,
		modelPath: *modelPath, pp: *pp, gpuName: *gpuName, memUtil: *memUtil,
		schedName: *schedName, budget: *budget, timeScale: *timeScale, prefixCache: *prefix,
		retry: cluster.RetryPolicy{
			MaxAttempts: *retryAttempts, BaseDelay: *retryBase,
			MaxDelay: *retryMax, Budget: *retryBudget, HonorRetryAfter: true,
		},
		drainTimeout: *drainTimeout, seed: *seed, logLevel: *logLevel, selfcheck: *selfcheck,
		remotes: remotes, probeInterval: *probeInterval, probeFailures: *probeFailures,
		connectTimeout: *connectTimeout, selfcheckRemote: *selfcheckRemote, serverBin: *serverBin,
		traceOut: *traceOut, selfcheckTrace: *selfcheckTrace, pprofOn: *pprofOn,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "gllm-cluster:", err)
		os.Exit(1)
	}
}

type clusterOptions struct {
	port         int
	replicas     int
	policy       string
	modelPath    string
	pp           int
	gpuName      string
	memUtil      float64
	schedName    string
	budget       int
	timeScale    float64
	prefixCache  bool
	retry        cluster.RetryPolicy
	drainTimeout time.Duration
	seed         uint64
	logLevel     string
	selfcheck    bool

	remotes         []string // remote replica base URLs (-replica, repeatable)
	probeInterval   time.Duration
	probeFailures   int
	connectTimeout  time.Duration
	selfcheckRemote bool
	serverBin       string
	traceOut        string
	selfcheckTrace  bool
	pprofOn         bool
}

// remoteConfig renders the shared remote-transport settings for one
// endpoint.
func (o clusterOptions) remoteConfig(baseURL string, logger *slog.Logger) cluster.RemoteConfig {
	return cluster.RemoteConfig{
		BaseURL:          baseURL,
		Model:            o.modelPath,
		ConnectTimeout:   o.connectTimeout,
		ProbeInterval:    o.probeInterval,
		FailureThreshold: o.probeFailures,
		Logger:           logger,
	}
}

func parseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", s)
}

// replicaFactory builds one fresh replica runtime per call; each gets its
// own scheduler instance (schedulers hold mutable state). In-process
// replicas share the router's span recorder — same process, same clock,
// so their replica-side spans merge with the router's for free.
func replicaFactory(o clusterOptions, spans *obs.ReqRecorder) (func() (*runtime.Runtime, error), error) {
	m, err := model.ByName(o.modelPath)
	if err != nil {
		return nil, err
	}
	g, err := gpu.ByName(o.gpuName)
	if err != nil {
		return nil, err
	}
	return func() (*runtime.Runtime, error) {
		s, err := sched.ByName(o.schedName, o.budget, core.DefaultParams())
		if err != nil {
			return nil, err
		}
		return runtime.Start(runtime.Config{
			Model:             m,
			GPU:               g,
			Topo:              network.IntraNode(o.pp, network.PCIe),
			MemUtil:           o.memUtil,
			Scheduler:         s,
			Async:             true,
			TimeScale:         o.timeScale,
			EnablePrefixCache: o.prefixCache,
			ReqSpans:          spans,
		})
	}, nil
}

// admin bundles the router with the pieces the admin endpoints need.
type admin struct {
	router       *cluster.Router
	fresh        func() (*runtime.Runtime, error)
	nextID       atomic.Int64
	drainTimeout time.Duration
	logger       *slog.Logger
	reqSpans     *obs.ReqRecorder  // router-side + in-process replica spans
	timeline     *cluster.Timeline // /cluster/timeline pressure sampler
}

func buildCluster(o clusterOptions, logger *slog.Logger) (*admin, error) {
	pol, err := cluster.ByName(o.policy, o.seed)
	if err != nil {
		return nil, err
	}
	reqSpans := obs.NewReqRecorder(0)
	fresh, err := replicaFactory(o, reqSpans)
	if err != nil {
		return nil, err
	}
	a := &admin{
		router: cluster.New(cluster.Config{
			Policy: pol, Retry: o.retry, Seed: o.seed, Logger: logger,
			ReqSpans: reqSpans,
		}),
		fresh:        fresh,
		drainTimeout: o.drainTimeout,
		logger:       logger,
		reqSpans:     reqSpans,
	}
	for i := 0; i < o.replicas; i++ {
		rt, err := fresh()
		if err != nil {
			a.router.Close()
			return nil, err
		}
		if _, err := a.router.Add(fmt.Sprintf("r%d", a.nextID.Add(1)-1), rt); err != nil {
			rt.Close()
			a.router.Close()
			return nil, err
		}
	}
	for i, baseURL := range o.remotes {
		cfg := o.remoteConfig(baseURL, logger)
		cfg.ReqSpans = reqSpans
		rem, err := cluster.NewRemote(cfg)
		if err != nil {
			a.router.Close()
			return nil, err
		}
		if _, err := a.router.Add(fmt.Sprintf("remote%d", i), rem); err != nil {
			rem.Close()
			a.router.Close()
			return nil, err
		}
	}
	a.timeline = cluster.NewTimeline(a.router, time.Second, 0)
	return a, nil
}

// close tears down the sampler and every replica.
func (a *admin) close() {
	a.timeline.Stop()
	a.router.Close()
}

// clusterBackend adapts the router to the HTTP frontend's Backend, so the
// cluster reuses the entire single-node serving surface (SSE streaming,
// /healthz, /stats, /metrics) unchanged.
type clusterBackend struct{ r *cluster.Router }

func (b clusterBackend) Submit(ctx context.Context, req server.SubmitRequest) (*runtime.Handle, error) {
	h, _, err := b.r.Submit(ctx, req)
	return h, err
}
func (b clusterBackend) Stats() runtime.Snapshot { return b.r.Stats() }
func (b clusterBackend) Scrape() metrics.Scrape  { return b.r.Scrape() }

// replicaStatus is one row of /cluster/stats.
type replicaStatus struct {
	ID       string  `json:"id"`
	Health   string  `json:"health"`
	Draining bool    `json:"draining"`
	Routed   int64   `json:"routed"`
	Rejects  int64   `json:"rejects"`
	KVFree   float64 `json:"kv_free"`
	Resident int     `json:"resident"`
}

func replicaRows(reps []*cluster.Replica) []replicaStatus {
	rows := make([]replicaStatus, 0, len(reps))
	for _, rep := range reps {
		p := rep.Pressure()
		rows = append(rows, replicaStatus{
			ID: rep.ID, Health: p.Health, Draining: rep.Draining(),
			Routed: rep.Routed(), Rejects: rep.Rejects(),
			KVFree: p.KVFree, Resident: p.Resident,
		})
	}
	return rows
}

func (a *admin) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"policy":      a.router.Policy().Name(),
		"replicas":    replicaRows(a.router.Replicas()),
		"retired":     replicaRows(a.router.Retired()),
		"retries_429": a.router.Retries429(),
		"gave_up":     a.router.GaveUp(),
		"router":      a.router.RouterStats(),
	})
}

// handleMetrics serves the federated exposition: every replica's series
// labeled {replica="id"} plus the gllm_router_* series. Registered on
// the exact path so it shadows the frontend's single-node /metrics.
func (a *admin) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	metrics.WriteFamilies(w, a.router.Federate(r.Context()))
}

// handleTimeline serves the pressure/health ring, oldest sample first.
func (a *admin) handleTimeline(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"total":   a.timeline.Total(),
		"samples": a.timeline.Samples(),
	})
}

// handleTrace serves the merged Chrome trace (router + every replica's
// spans, clock-aligned) for ad-hoc inspection without -trace-out.
func (a *admin) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	exports := append([]obs.ReqExport{a.reqSpans.Export()}, a.router.TraceExports(r.Context())...)
	if err := obs.WriteChromeRequests(w, exports...); err != nil {
		a.logger.Warn("trace export", "err", err)
	}
}

func (a *admin) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	id := r.URL.Query().Get("id")
	ctx, cancel := context.WithTimeout(r.Context(), a.drainTimeout)
	defer cancel()
	if err := a.router.Drain(ctx, id); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"drained": id})
}

func (a *admin) handleReplace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	oldID := r.URL.Query().Get("id")
	rt, err := a.fresh()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	newID := fmt.Sprintf("r%d", a.nextID.Add(1)-1)
	ctx, cancel := context.WithTimeout(r.Context(), a.drainTimeout)
	defer cancel()
	if _, err := a.router.Replace(ctx, oldID, newID, rt); err != nil {
		rt.Close()
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"drained": oldID, "added": newID})
}

// handler assembles the serving mux: the standard OpenAI-compatible
// frontend plus the cluster admin endpoints.
func (a *admin) handler(modelName string) http.Handler {
	fe := server.NewBackend(clusterBackend{a.router}, modelName)
	fe.EnableRequestTracing(a.reqSpans, obs.SideRouter)
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/stats", a.handleStats)
	mux.HandleFunc("/cluster/drain", a.handleDrain)
	mux.HandleFunc("/cluster/replace", a.handleReplace)
	mux.HandleFunc("/cluster/timeline", a.handleTimeline)
	mux.HandleFunc("/cluster/trace", a.handleTrace)
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.Handle("/", fe)
	return mux
}

// writeMergedTrace gathers the router's spans plus every remote
// replica's /tracespans export and writes one merged Chrome trace.
func (a *admin) writeMergedTrace(path string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	exports := append([]obs.ReqExport{a.reqSpans.Export()}, a.router.TraceExports(ctx)...)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeRequests(f, exports...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(o clusterOptions) error {
	level, err := parseLevel(o.logLevel)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	if o.selfcheck {
		return selfCheck(o, logger)
	}
	if o.selfcheckRemote {
		return selfCheckRemote(o, logger)
	}
	if o.selfcheckTrace {
		return selfCheckTrace(o, logger)
	}

	a, err := buildCluster(o, logger)
	if err != nil {
		return err
	}
	handler := a.handler(o.modelPath)
	if o.pprofOn {
		handler = profiling.WithPprof(handler)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	httpSrv := &http.Server{Addr: fmt.Sprintf(":%d", o.port), Handler: handler}

	// First signal: graceful — drain every replica (in-flight streams keep
	// delivering) up to -drain-timeout. Second signal: abort immediately.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		logger.Info("draining cluster", "timeout", o.drainTimeout)
		go func() {
			<-sigCh
			logger.Warn("aborting")
			_ = a.router.Close()
		}()
		ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
		defer cancel()
		if err := a.router.Shutdown(ctx); err != nil {
			logger.Warn("drain incomplete", "err", err)
		}
		_ = httpSrv.Shutdown(ctx)
	}()

	logger.Info("serving cluster",
		"replicas", o.replicas, "policy", o.policy, "model", o.modelPath,
		"pp", o.pp, "addr", httpSrv.Addr)
	serveErr := httpSrv.ListenAndServe()
	a.timeline.Stop()
	if o.traceOut != "" {
		if err := a.writeMergedTrace(o.traceOut); err != nil {
			logger.Warn("trace-out", "path", o.traceOut, "err", err)
		} else {
			logger.Info("wrote merged request trace", "path", o.traceOut)
		}
	}
	if serveErr != nil && serveErr != http.ErrServerClosed {
		return serveErr
	}
	return nil
}

// selfCheck is the end-to-end smoke behind `make cluster-smoke`: full HTTP
// path, concurrent prefix-group conversations, a drain mid-flight, then
// hard verification that nothing was dropped or leaked.
func selfCheck(o clusterOptions, logger *slog.Logger) error {
	o.replicas = 3
	o.policy = "prefix"
	o.timeScale = 0
	o.prefixCache = true
	a, err := buildCluster(o, logger)
	if err != nil {
		return err
	}
	defer a.close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: a.handler(o.modelPath)}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	// Multi-turn prefix-group conversations, compressed to ~1 s of replay.
	trace := workload.Conversations(stats.NewRNG(o.seed), workload.ConversationSpec{
		Dataset:     workload.ShareGPT,
		Rate:        40,
		Window:      time.Second,
		MaxTurns:    3,
		ThinkMean:   100 * time.Millisecond,
		FollowUpLen: 24,
		MaxContext:  2048,
	})
	if len(trace) == 0 {
		return fmt.Errorf("selfcheck: empty trace")
	}

	// Drain r1 through the admin endpoint once the replay is underway.
	drainErr := make(chan error, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		req, _ := http.NewRequest(http.MethodPost, base+"/cluster/drain?id=r1", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("drain status %s", resp.Status)
			}
		}
		drainErr <- err
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := client.Run(ctx, client.Options{
		BaseURL:     base,
		Model:       o.modelPath,
		Items:       trace,
		PromptMode:  client.PromptSynthetic,
		MaxInFlight: 64,
	})
	if err != nil {
		return err
	}
	if err := <-drainErr; err != nil {
		return fmt.Errorf("selfcheck: drain: %w", err)
	}
	for _, e := range res.Errors {
		return fmt.Errorf("selfcheck: stream error (of %d): %w", len(res.Errors), e)
	}
	if res.Rejected > 0 {
		return fmt.Errorf("selfcheck: %d rejections at trivial load", res.Rejected)
	}

	// Every stream delivered exactly the tokens it asked for.
	recs := res.Collector.Records()
	if len(recs) != len(trace) {
		return fmt.Errorf("selfcheck: %d streams completed, want %d", len(recs), len(trace))
	}
	for _, rec := range recs {
		if want := trace[rec.ID].OutputLen; rec.OutputTokens != want {
			return fmt.Errorf("selfcheck: request %d delivered %d of %d tokens", rec.ID, rec.OutputTokens, want)
		}
	}

	// The drained replica must be retired, the survivors healthy; after a
	// full drain nothing may stay resident and no replica may leak KV.
	if len(a.router.Retired()) != 1 || a.router.Retired()[0].ID != "r1" {
		return fmt.Errorf("selfcheck: retired = %v", replicaRows(a.router.Retired()))
	}
	if len(a.router.Replicas()) != 2 {
		return fmt.Errorf("selfcheck: active = %v", replicaRows(a.router.Replicas()))
	}
	sdCtx, sdCancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer sdCancel()
	if err := a.router.Shutdown(sdCtx); err != nil {
		return fmt.Errorf("selfcheck: shutdown: %w", err)
	}
	var finished int
	for _, rep := range a.router.Retired() {
		st := rep.Stats()
		finished += st.Finished
		if st.Resident != 0 || st.InFlight != 0 {
			return fmt.Errorf("selfcheck: replica %s: %d resident / %d in flight after drain",
				rep.ID, st.Resident, st.InFlight)
		}
		if st.KVFreeBlocks != st.KVTotalBlocks {
			return fmt.Errorf("selfcheck: replica %s leaked KV: %d of %d blocks free",
				rep.ID, st.KVFreeBlocks, st.KVTotalBlocks)
		}
	}
	if finished != len(trace) {
		return fmt.Errorf("selfcheck: replicas finished %d, want %d", finished, len(trace))
	}
	logger.Info("selfcheck ok",
		"streams", len(recs), "replicas", 3, "drained", "r1",
		"retries_429", a.router.Retries429())
	fmt.Printf("selfcheck ok: %d streams, 3 replicas, drained r1 mid-flight, zero dropped tokens\n", len(recs))
	return nil
}

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
// This package is wiring only — flags, the replica factory, signals. The
// HTTP frontend is cluster.Frontend, and the end-to-end checks (drain
// mid-flight, kill and revive a remote, merged traces) are the tests in
// internal/cluster/smoke_test.go.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gllm/internal/cluster"
	"gllm/internal/core"
	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/profiling"
	"gllm/internal/runtime"
	"gllm/internal/sched"
	"gllm/internal/server"
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
		timeScale = flag.Float64("time-scale", 0, "emulated GPU time scale (0 = no emulated time)")
		prefix    = flag.Bool("enable-prefix-cache", true, "reuse KV across requests sharing a prefix group")

		retryAttempts = flag.Int("retry-attempts", 4, "submission attempts before giving up (429 → retry)")
		retryBase     = flag.Duration("retry-base", 5*time.Millisecond, "backoff base delay")
		retryMax      = flag.Duration("retry-max", time.Second, "backoff cap (Retry-After hints may exceed it)")
		retryBudget   = flag.Duration("retry-budget", 10*time.Second, "total time budget across attempts")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second,
			"graceful window for /cluster/drain and shutdown before in-flight work is aborted")
		seed = flag.Uint64("seed", 20250704, "router jitter seed")

		probeInterval = flag.Duration("probe-interval", 250*time.Millisecond,
			"health-probe period for remote replicas")
		probeFailures = flag.Int("probe-failures", 3,
			"consecutive probe failures before a remote replica reads unreachable")
		traceOut = flag.String("trace-out", "",
			"write the merged cross-process request trace (Chrome trace JSON) here on exit")
		pprofOn = flag.Bool("pprof", false,
			"expose net/http/pprof profiling handlers under /debug/pprof/")
	)
	var logLevel slog.Level
	flag.TextVar(&logLevel, "log-level", slog.LevelInfo, "structured log level: debug, info, warn, error")
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
		drainTimeout: *drainTimeout, seed: *seed, logLevel: logLevel,
		remotes: remotes, probeInterval: *probeInterval, probeFailures: *probeFailures,
		traceOut: *traceOut, pprofOn: *pprofOn,
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
	logLevel     slog.Level

	remotes       []string // remote replica base URLs (-replica, repeatable)
	probeInterval time.Duration
	probeFailures int
	traceOut      string
	pprofOn       bool
}

// replicaFactory builds one fresh replica runtime per call; each gets its
// own scheduler instance (schedulers hold mutable state). In-process
// replicas share the router's span recorder — same process, same clock,
// so their replica-side spans merge with the router's for free.
func replicaFactory(o clusterOptions, spans *obs.ReqRecorder) (func() (cluster.Engine, error), error) {
	// Written so that NaN fails; an explicit 0 is out of range too, not
	// the engine's unset default.
	if !(o.memUtil > 0 && o.memUtil <= 1) {
		return nil, fmt.Errorf("-gpu-memory-util: MemUtil %g out of (0,1]", o.memUtil)
	}
	m, err := model.ByName(o.modelPath)
	if err != nil {
		return nil, err
	}
	g, err := gpu.ByName(o.gpuName)
	if err != nil {
		return nil, err
	}
	return func() (cluster.Engine, error) {
		s, err := sched.ByName(o.schedName, o.budget, core.DefaultParams())
		if err != nil {
			return nil, err
		}
		rt, err := runtime.Start(runtime.Config{
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
		if err != nil {
			return nil, err // not rt: a nil *Runtime is a non-nil Engine
		}
		return rt, nil
	}, nil
}

// checkOptions rejects the flag values that would panic in the topology,
// serve every request a 429, wrap no cause in the router's error, bend the
// retry backoff, or leave every drain incomplete.
func checkOptions(o clusterOptions) error {
	switch {
	case o.pp < 1:
		return fmt.Errorf("-pp %d: want at least 1 stage", o.pp)
	case o.replicas < 0:
		return fmt.Errorf("-replicas %d: want 0 or more", o.replicas)
	case o.replicas == 0 && len(o.remotes) == 0:
		return errors.New("-replicas 0 and no -replica: nothing to route to")
	case o.retry.MaxAttempts < 0:
		return fmt.Errorf("-retry-attempts %d: want 0 (the default) or more", o.retry.MaxAttempts)
	case o.retry.BaseDelay < 0:
		return fmt.Errorf("-retry-base %v: want 0 (the default) or more", o.retry.BaseDelay)
	case o.retry.MaxDelay < 0:
		return fmt.Errorf("-retry-max %v: want 0 (the default) or more", o.retry.MaxDelay)
	case o.retry.Budget < 0:
		return fmt.Errorf("-retry-budget %v: want 0 (the default) or more", o.retry.Budget)
	case o.probeInterval < 0:
		return fmt.Errorf("-probe-interval %v: want 0 (the default) or more", o.probeInterval)
	case o.probeFailures < 0:
		return fmt.Errorf("-probe-failures %d: want 0 (the default) or more", o.probeFailures)
	case o.drainTimeout < 0:
		return fmt.Errorf("-drain-timeout %v: want 0 (abort at once) or more", o.drainTimeout)
	}
	return nil
}

// buildCluster assembles the router, its initial replicas (in-process
// r0…rN-1, then remote0…) and the HTTP frontend over them.
func buildCluster(o clusterOptions, logger *slog.Logger) (*cluster.Router, *cluster.Frontend, error) {
	if err := checkOptions(o); err != nil {
		return nil, nil, err
	}
	pol, err := cluster.ByName(o.policy, o.seed)
	if err != nil {
		return nil, nil, err
	}
	reqSpans := obs.NewReqRecorder(0)
	fresh, err := replicaFactory(o, reqSpans)
	if err != nil {
		return nil, nil, err
	}
	router := cluster.New(cluster.Config{
		Policy: pol, Retry: o.retry, Seed: o.seed, Logger: logger,
		ReqSpans: reqSpans,
	})
	fail := func(err error) (*cluster.Router, *cluster.Frontend, error) {
		router.Close()
		return nil, nil, err
	}
	for i := 0; i < o.replicas; i++ {
		eng, err := fresh()
		if err != nil {
			return fail(err)
		}
		if _, err := router.Add(fmt.Sprintf("r%d", i), eng); err != nil {
			eng.Close()
			return fail(err)
		}
	}
	for i, baseURL := range o.remotes {
		rem, err := cluster.NewRemote(cluster.RemoteConfig{
			BaseURL: baseURL, Model: o.modelPath,
			ProbeInterval: o.probeInterval, FailureThreshold: o.probeFailures,
			Logger: logger, ReqSpans: reqSpans,
		})
		if err != nil {
			return fail(err)
		}
		if _, err := router.Add(fmt.Sprintf("remote%d", i), rem); err != nil {
			rem.Close()
			return fail(err)
		}
	}
	return router, cluster.NewFrontend(router, fresh, o.drainTimeout, logger, reqSpans, o.modelPath), nil
}

func run(o clusterOptions) error {
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: o.logLevel}))
	router, fe, err := buildCluster(o, logger)
	if err != nil {
		return err
	}
	defer fe.Close()
	handler := http.Handler(fe)
	if o.pprofOn {
		handler = profiling.WithPprof(handler)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	httpSrv := &http.Server{Addr: fmt.Sprintf(":%d", o.port), Handler: handler}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	logger.Info("serving cluster",
		"replicas", o.replicas, "policy", o.policy, "model", o.modelPath,
		"pp", o.pp, "addr", httpSrv.Addr)
	ln, err := net.Listen("tcp", httpSrv.Addr)
	if err != nil {
		return err
	}
	// First signal: graceful — drain every replica (in-flight streams keep
	// delivering) up to -drain-timeout. Second signal: abort immediately.
	serveErr := server.ServeUntilSignal(httpSrv, ln, sigCh, o.drainTimeout,
		func(ctx context.Context) {
			logger.Info("draining cluster", "timeout", o.drainTimeout)
			if err := router.Shutdown(ctx); err != nil {
				logger.Warn("drain incomplete", "err", err)
			}
		},
		func() {
			logger.Warn("aborting")
			_ = router.Close()
		})
	if o.traceOut != "" {
		if err := fe.WriteMergedTrace(o.traceOut); err != nil {
			logger.Warn("trace-out", "path", o.traceOut, "err", err)
		} else {
			logger.Info("wrote merged request trace", "path", o.traceOut)
		}
	}
	return serveErr
}

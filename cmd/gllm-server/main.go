// Command gllm-server starts the OpenAI-compatible serving frontend backed
// by the concurrent gLLM runtime (emulated GPU compute), mirroring the
// paper's api_server entrypoint:
//
//	gllm-server -port 8000 -model-path Qwen2.5-32B -pp 4 -gpu-memory-util 0.9
//
// Then benchmark it with gllm-bench, or query it directly:
//
//	curl -s localhost:8000/v1/completions -d '{"prompt":"hello world","max_tokens":8}'
//
// Observability:
//
//	gllm-server -trace-out spans.json    # Chrome trace of stage timelines on exit
//	gllm-server -pprof                   # /debug/pprof/ profiling endpoints
//	gllm-server -log-level debug         # structured lifecycle logs on stderr
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

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

// srvOptions carries the observability toggles so run's positional list
// stops growing.
type srvOptions struct {
	traceOut string
	pprofOn  bool
	logLevel slog.Level
}

func main() {
	var (
		port        = flag.Int("port", 8000, "listen port")
		modelPath   = flag.String("model-path", "Qwen2.5-32B", "model name (paper flag --model-path)")
		pp          = flag.Int("pp", 4, "pipeline parallel degree (paper flag --pp)")
		gpuName     = flag.String("gpu", "L20-48GB", "GPU type")
		memUtil     = flag.Float64("gpu-memory-util", 0.9, "GPU memory utilization")
		schedName   = flag.String("sched", "gllm", "scheduler: gllm, sarathi, gllm-no-wt, gllm-no-ut, gllm-ck")
		naive       = flag.Bool("use-naive-schedule", false, "use the Sarathi-Serve policy (paper flag)")
		budget      = flag.Int("token-budget", 2048, "Sarathi token budget")
		iterT       = flag.Int("iterp", 8, "gLLM #T")
		maxP        = flag.Int("maxp", 2048, "gLLM #MaxP")
		minP        = flag.Int("minp", 32, "gLLM #MinP")
		kvThresh    = flag.Float64("kvthresh", 0.05, "gLLM KV_thresh")
		timeScale   = flag.Float64("time-scale", 0, "emulated GPU time scale (0 = no sleeping, 1 = modeled real time)")
		syncRuntime = flag.Bool("sync-runtime", false, "use the coupled (vLLM-like) runtime instead of async")
		enableCPP   = flag.Bool("enable-cpp", false, "pipeline prompt chunks across micro-batches")
		prefixCache = flag.Bool("enable-prefix-cache", false, "reuse KV across requests sharing a prefix group")

		drainTimeout = flag.Duration("drain-timeout", 30*time.Second,
			"graceful-shutdown drain window before in-flight requests are aborted")
		watchdogTimeout = flag.Duration("watchdog-timeout", 30*time.Second,
			"flag /healthz degraded when in-flight work stops retiring for this long (negative disables)")
		admitKVFactor = flag.Float64("admit-kv-factor", 0,
			"reject submissions (HTTP 429) when projected KV demand exceeds this multiple of KV capacity (0 = default 8, negative disables)")
		stallStage = flag.Int("stall-stage", -1,
			"fault injection: pipeline stage to stall (-1 disables)")
		stallDuration = flag.Duration("stall-duration", 0,
			"fault injection: wall-clock stall per micro-batch at -stall-stage")

		traceOut = flag.String("trace-out", "",
			"write per-stage exec/xfer/prep spans as Chrome trace-event JSON on shutdown")
		pprofOn = flag.Bool("pprof", false,
			"expose net/http/pprof profiling handlers under /debug/pprof/")
	)
	var logLevel slog.Level
	flag.TextVar(&logLevel, "log-level", slog.LevelInfo, "structured log level: debug, info, warn, error")
	flag.Parse()
	opts := srvOptions{traceOut: *traceOut, pprofOn: *pprofOn, logLevel: logLevel}
	if err := run(*port, *modelPath, *pp, *gpuName, *memUtil, *schedName, *naive, *budget,
		core.Params{IterT: *iterT, MaxP: *maxP, MinP: *minP, KVThresh: *kvThresh},
		*timeScale, *syncRuntime, *enableCPP, *prefixCache,
		*drainTimeout, *watchdogTimeout, *admitKVFactor, *stallStage, *stallDuration,
		opts); err != nil {
		fmt.Fprintln(os.Stderr, "gllm-server:", err)
		os.Exit(1)
	}
}

func run(port int, modelPath string, pp int, gpuName string, memUtil float64,
	schedName string, naive bool, budget int, params core.Params,
	timeScale float64, syncRuntime, enableCPP, prefixCache bool,
	drainTimeout, watchdogTimeout time.Duration, admitKVFactor float64,
	stallStage int, stallDuration time.Duration, opts srvOptions) error {

	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: opts.logLevel}))

	m, err := model.ByName(modelPath)
	if err != nil {
		return err
	}
	g, err := gpu.ByName(gpuName)
	if err != nil {
		return err
	}
	if naive {
		schedName = "sarathi"
	}
	s, err := sched.ByName(schedName, budget, params)
	if err != nil {
		return err
	}
	var fault func(stage, seq int) time.Duration
	if stallStage >= 0 && stallDuration > 0 {
		fault = func(stage, seq int) time.Duration {
			if stage == stallStage {
				return stallDuration
			}
			return 0
		}
		logger.Warn("fault injection enabled", "stage", stallStage, "stall", stallDuration)
	}
	var rec *obs.Recorder
	if opts.traceOut != "" {
		rec = obs.NewRecorder(pp, 0)
	}
	// Request-span recording is always on: spans land in a fixed ring
	// (alloc-free record path) and export at GET /tracespans, so a cluster
	// frontend can merge this replica's view into one cross-process trace.
	reqSpans := obs.NewReqRecorder(0)
	rt, err := runtime.Start(runtime.Config{
		Model:             m,
		GPU:               g,
		Topo:              network.IntraNode(pp, network.PCIe),
		MemUtil:           memUtil,
		Scheduler:         s,
		Async:             !syncRuntime,
		TimeScale:         timeScale,
		EnableCPP:         enableCPP,
		EnablePrefixCache: prefixCache,
		AdmitKVFactor:     admitKVFactor,
		WatchdogTimeout:   watchdogTimeout,
		StageFault:        fault,
		Spans:             rec,
		ReqSpans:          reqSpans,
		Logger:            logger,
	})
	if err != nil {
		return err
	}

	srv := server.New(rt, m.Name)
	srv.EnableRequestTracing(reqSpans, obs.SideReplica)
	handler := http.Handler(srv)
	if opts.pprofOn {
		handler = profiling.WithPprof(handler)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	addr := fmt.Sprintf(":%d", port)
	httpSrv := &http.Server{Addr: addr, Handler: handler}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	logger.Info("serving",
		"model", m.Name, "pp", pp, "scheduler", s.Name(), "async", !syncRuntime,
		"addr", addr, "kv_capacity_tokens", rt.KVCapacityTokens())
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// First signal: graceful — drain queued and in-flight generation up to
	// -drain-timeout, then stop the HTTP server once its handlers have
	// written their last bytes. Second signal: abort immediately.
	err = server.ServeUntilSignal(httpSrv, ln, sigCh, drainTimeout,
		func(ctx context.Context) {
			logger.Info("draining", "timeout", drainTimeout)
			if err := rt.Shutdown(ctx); err != nil {
				logger.Warn("drain incomplete", "err", err)
			}
		},
		func() {
			logger.Warn("aborting")
			_ = rt.Close()
		})
	if err != nil {
		return err
	}
	if rec != nil {
		if err := writeTrace(opts.traceOut, rec, rt, logger); err != nil {
			return err
		}
	}
	return nil
}

// writeTrace dumps the span recorder once the runtime has drained.
func writeTrace(path string, rec *obs.Recorder, rt *runtime.Runtime, logger *slog.Logger) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	acc := rec.AccountOver(rt.Stats().Uptime)
	logger.Info("trace written",
		"path", path, "spans", acc.Spans, "dropped", acc.Dropped,
		"bubble_rate", fmt.Sprintf("%.3f", acc.BubbleRate))
	return nil
}

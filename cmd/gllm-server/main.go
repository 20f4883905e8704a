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
//	gllm-server -trace-out spans.json    # Chrome trace of stage and request lanes on exit
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

// srvOptions is the parsed command line.
type srvOptions struct {
	port        int
	modelPath   string
	pp          int
	gpuName     string
	memUtil     float64
	schedName   string
	budget      int
	params      core.Params
	timeScale   float64
	syncRuntime bool
	enableCPP   bool
	prefixCache bool

	drainTimeout    time.Duration
	watchdogTimeout time.Duration
	admitKVFactor   float64
	stallStage      int
	stallDuration   time.Duration

	traceOut string
	pprofOn  bool
	logLevel slog.Level
}

func main() {
	var o srvOptions
	flag.IntVar(&o.port, "port", 8000, "listen port")
	flag.StringVar(&o.modelPath, "model-path", "Qwen2.5-32B", "model name (paper flag --model-path)")
	flag.IntVar(&o.pp, "pp", 4, "pipeline parallel degree (paper flag --pp)")
	flag.StringVar(&o.gpuName, "gpu", "L20-48GB", "GPU type")
	flag.Float64Var(&o.memUtil, "gpu-memory-util", 0.9, "GPU memory utilization, in (0,1]")
	flag.StringVar(&o.schedName, "sched", "gllm", "scheduler: gllm, sarathi, gllm-no-wt, gllm-no-ut, gllm-ck")
	flag.IntVar(&o.budget, "token-budget", 2048, "Sarathi token budget")
	flag.IntVar(&o.params.IterT, "iterp", 8, "gLLM #T")
	flag.IntVar(&o.params.MaxP, "maxp", 2048, "gLLM #MaxP")
	flag.IntVar(&o.params.MinP, "minp", 32, "gLLM #MinP")
	flag.Float64Var(&o.params.KVThresh, "kvthresh", 0.05, "gLLM KV_thresh")
	flag.Float64Var(&o.timeScale, "time-scale", 0, "emulated GPU time scale (0 = no emulated time, 1 = modeled real time)")
	flag.BoolVar(&o.syncRuntime, "sync-runtime", false, "use the coupled (vLLM-like) runtime instead of async")
	flag.BoolVar(&o.enableCPP, "enable-cpp", false, "pipeline prompt chunks across micro-batches")
	flag.BoolVar(&o.prefixCache, "enable-prefix-cache", false, "reuse KV across requests sharing a prefix group")

	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second,
		"graceful-shutdown drain window before in-flight requests are aborted")
	flag.DurationVar(&o.watchdogTimeout, "watchdog-timeout", 30*time.Second,
		"flag /healthz degraded when in-flight work stops retiring for this long (negative disables)")
	flag.Float64Var(&o.admitKVFactor, "admit-kv-factor", 0,
		"reject submissions (HTTP 429) when projected KV demand exceeds this multiple of KV capacity (0 = default 8, negative disables)")
	flag.IntVar(&o.stallStage, "stall-stage", -1,
		"fault injection: pipeline stage to stall (-1 disables)")
	flag.DurationVar(&o.stallDuration, "stall-duration", 0,
		"fault injection: wall-clock stall per micro-batch at -stall-stage")

	flag.StringVar(&o.traceOut, "trace-out", "",
		"write per-stage exec/xfer/prep spans and per-request lifecycle spans, on one clock, as Chrome trace-event JSON on shutdown")
	flag.BoolVar(&o.pprofOn, "pprof", false,
		"expose net/http/pprof profiling handlers under /debug/pprof/")
	flag.TextVar(&o.logLevel, "log-level", slog.LevelInfo, "structured log level: debug, info, warn, error")
	flag.Parse()
	// First signal: graceful drain; second: abort (see run).
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	if err := run(o, sigCh); err != nil {
		fmt.Fprintln(os.Stderr, "gllm-server:", err)
		os.Exit(1)
	}
}

// run serves until the first signal on sigCh, then drains.
func run(o srvOptions, sigCh <-chan os.Signal) error {
	// Written so that NaN fails; an explicit 0 is out of range too, not
	// the engine's unset default.
	if !(o.memUtil > 0 && o.memUtil <= 1) {
		return fmt.Errorf("-gpu-memory-util: MemUtil %g out of (0,1]", o.memUtil)
	}
	if o.pp < 1 {
		return fmt.Errorf("-pp %d: want at least 1 stage", o.pp)
	}
	if o.drainTimeout < 0 {
		return fmt.Errorf("-drain-timeout %v: want 0 (abort at once) or more", o.drainTimeout)
	}
	if o.stallStage < -1 || o.stallStage >= o.pp {
		return fmt.Errorf("-stall-stage %d: want -1 (off) or a stage in [0,%d)", o.stallStage, o.pp)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: o.logLevel}))

	m, err := model.ByName(o.modelPath)
	if err != nil {
		return err
	}
	g, err := gpu.ByName(o.gpuName)
	if err != nil {
		return err
	}
	s, err := sched.ByName(o.schedName, o.budget, o.params)
	if err != nil {
		return err
	}
	var fault func(stage, seq int) time.Duration
	if o.stallStage >= 0 && o.stallDuration > 0 {
		fault = func(stage, seq int) time.Duration {
			if stage == o.stallStage {
				return o.stallDuration
			}
			return 0
		}
		logger.Warn("fault injection enabled", "stage", o.stallStage, "stall", o.stallDuration)
	}
	var rec *obs.Recorder
	if o.traceOut != "" {
		rec = obs.NewRecorder(o.pp, 0)
	}
	// Request-span recording is always on: spans land in a fixed ring
	// (alloc-free record path) and export at GET /tracespans, so a cluster
	// frontend can merge this replica's view into one cross-process trace.
	reqSpans := obs.NewReqRecorder(0)
	rt, err := runtime.Start(runtime.Config{
		Model:             m,
		GPU:               g,
		Topo:              network.IntraNode(o.pp, network.PCIe),
		MemUtil:           o.memUtil,
		Scheduler:         s,
		Async:             !o.syncRuntime,
		TimeScale:         o.timeScale,
		EnableCPP:         o.enableCPP,
		EnablePrefixCache: o.prefixCache,
		AdmitKVFactor:     o.admitKVFactor,
		WatchdogTimeout:   o.watchdogTimeout,
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
	if o.pprofOn {
		handler = profiling.WithPprof(handler)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	addr := fmt.Sprintf(":%d", o.port)
	httpSrv := &http.Server{Addr: addr, Handler: handler}

	logger.Info("serving",
		"model", m.Name, "pp", o.pp, "scheduler", s.Name(), "async", !o.syncRuntime,
		"addr", addr, "kv_capacity_tokens", rt.KVCapacityTokens())
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		_ = rt.Close()
		return err
	}
	// First signal: graceful — drain queued and in-flight generation up to
	// -drain-timeout, then stop the HTTP server once its handlers have
	// written their last bytes. Second signal: abort immediately.
	err = server.ServeUntilSignal(httpSrv, ln, sigCh, o.drainTimeout,
		func(ctx context.Context) {
			logger.Info("draining", "timeout", o.drainTimeout)
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
		return writeTrace(o.traceOut, rec, reqSpans, rt, logger)
	}
	return nil
}

// writeTrace dumps both lane families once the runtime has drained: the
// stage spans on the runtime's clock, and the request spans placed on it
// by the monotonic time from the request recorder's origin to the
// runtime's start, so a request's queue span ends on the nanosecond its
// first batch's prep starts.
func writeTrace(path string, rec *obs.Recorder, reqSpans *obs.ReqRecorder, rt *runtime.Runtime, logger *slog.Logger) error {
	ex := reqSpans.Export()
	if err := obs.WriteChromeFile(path, rec, reqSpans.UnixNano(rt.Start()), ex); err != nil {
		return err
	}
	logger.Info("trace written",
		"path", path, "spans", rec.Total(), "dropped", rec.Dropped(), "request_spans", len(ex.Spans),
		"bubble_rate", fmt.Sprintf("%.3f", rt.Stats().BubbleRate))
	return nil
}

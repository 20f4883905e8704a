package main

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gllm/internal/core"
	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/runtime"
	"gllm/internal/sched"
)

func TestWriteTrace(t *testing.T) {
	rec := obs.NewRecorder(4, 0)
	rt, err := runtime.Start(runtime.Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
		TimeScale: 0,
		Spans:     rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := rt.Submit(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for range h.Events {
	}
	<-h.Done()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	if err := writeTrace(path, rec, nil, rt, logger); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec, err := obs.ReadChrome(f)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stages != 4 || len(dec.Spans) == 0 {
		t.Fatalf("decoded stages=%d spans=%d", dec.Stages, len(dec.Spans))
	}
	if !bytes.Contains(logBuf.Bytes(), []byte("trace written")) {
		t.Fatalf("log missing trace written line: %s", logBuf.String())
	}
}

// The file -trace-out writes puts both lane families on one clock, to the
// nanosecond: a request's first schedule and its first batch's prep start
// are the same driver reading, so each traced request's replica queue span
// ends exactly where some prep span starts. A shift between the recorders
// taken from their Unix readings, not their monotonic ones, misses by a few
// nanoseconds now and then.
func TestWriteTraceSharesOneClock(t *testing.T) {
	rec, rr := obs.NewRecorder(4, 0), obs.NewReqRecorder(0)
	rt, err := runtime.Start(runtime.Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
		TimeScale: 0.01,
		Spans:     rec,
		ReqSpans:  rr,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const traced = 3
	var hs []*runtime.Handle
	for i := range traced {
		h, err := rt.SubmitBatchedSpec(ctx, runtime.SubmitSpec{PromptLen: 64 << i, MaxTokens: 4, Trace: obs.TraceID(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for _, h := range hs {
		for h.Next(ctx) != nil {
		}
		<-h.Done()
	}
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeTrace(path, rec, rr, rt, slog.New(slog.DiscardHandler)); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec, err := obs.ReadChrome(f)
	if err != nil {
		t.Fatal(err)
	}
	prepStarts := map[time.Duration]bool{}
	for _, s := range dec.Spans {
		if s.Kind == obs.KindPrep {
			prepStarts[s.Start] = true
		}
	}
	queues := 0
	for _, s := range dec.Requests {
		if s.Name != obs.SpanQueue {
			continue
		}
		queues++
		if !prepStarts[s.End] {
			t.Errorf("trace %s: queue span ends at %dns, where no prep span starts", s.Trace, int64(s.End))
		}
	}
	if queues != traced {
		t.Fatalf("%d queue spans, want %d", queues, traced)
	}
}

// A bad -gpu-memory-util is a usage error from run, not a goroutine trace
// from the cost model; and every numeric flag at NaN, ±Inf, -1 and 0 (the
// integer and duration flags take the values they can hold) either serves
// until the signal or fails with one line — never a panic or a hang.
func TestRunRejectsMemUtil(t *testing.T) {
	base := func(mutate func(*srvOptions)) srvOptions {
		o := srvOptions{modelPath: "Qwen2.5-14B", pp: 2, gpuName: "L20-48GB", memUtil: 0.9,
			schedName: "gllm", budget: 2048, params: core.DefaultParams(), stallStage: -1,
			drainTimeout: time.Second, logLevel: slog.LevelError + 1}
		mutate(&o)
		return o
	}
	// NaN used to pass the range check and size a 70 TB cache; an explicit
	// 0 is out of range, not the runtime's unset default.
	for _, v := range []float64{2, math.NaN(), math.Inf(1), math.Inf(-1), -1, 0} {
		err := runWithin(t, fmt.Sprintf("gpu-memory-util %g", v), base(func(o *srvOptions) { o.memUtil = v }))
		if want := fmt.Sprintf("MemUtil %g out of (0,1]", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run with -gpu-memory-util %g = %v, want the range error", v, err)
		}
	}
	// A pipeline or a token budget below 1 used to panic in the topology
	// and the scheduler.
	fail := map[string]func(*srvOptions){}
	runs := map[string]func(*srvOptions){}
	for _, v := range []int{-1, 0} {
		fail[fmt.Sprintf("pp %d", v)] = func(o *srvOptions) { o.pp = v }
		fail[fmt.Sprintf("token-budget %d", v)] = func(o *srvOptions) { o.schedName, o.budget = "sarathi", v }
		fail[fmt.Sprintf("iterp %d", v)] = func(o *srvOptions) { o.params.IterT = v }
		fail[fmt.Sprintf("maxp %d", v)] = func(o *srvOptions) { o.params.MaxP = v }
		fail[fmt.Sprintf("minp %d", v)] = func(o *srvOptions) { o.params.MinP = v }
		runs[fmt.Sprintf("port %d", v)] = func(o *srvOptions) { o.port = v }
		runs[fmt.Sprintf("stall-stage %d", v)] = func(o *srvOptions) { o.stallStage, o.stallDuration = v, time.Millisecond }
		d := time.Duration(v)
		runs[fmt.Sprintf("watchdog-timeout %d", v)] = func(o *srvOptions) { o.watchdogTimeout = d }
		runs[fmt.Sprintf("stall-duration %d", v)] = func(o *srvOptions) { o.stallStage, o.stallDuration = 0, d }
	}
	// A negative drain window used to be accepted and then log "drain
	// incomplete" on every shutdown; 0 keeps meaning "abort at once".
	fail["drain-timeout -1"] = func(o *srvOptions) { o.drainTimeout = -1 }
	runs["drain-timeout 0"] = func(o *srvOptions) { o.drainTimeout = 0 }
	// A stage past the pipeline used to log "fault injection enabled" for
	// a fault that never fired.
	fail["stall-stage 2"] = func(o *srvOptions) { o.stallStage, o.stallDuration = 2, time.Millisecond }
	fail["stall-stage -2"] = func(o *srvOptions) { o.stallStage, o.stallDuration = -2, time.Millisecond }
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0} {
		runs[fmt.Sprintf("kvthresh %g", v)] = func(o *srvOptions) { o.params.KVThresh = v }
		runs[fmt.Sprintf("time-scale %g", v)] = func(o *srvOptions) { o.timeScale = v }
		runs[fmt.Sprintf("admit-kv-factor %g", v)] = func(o *srvOptions) { o.admitKVFactor = v }
	}
	for name, mutate := range fail {
		if err := runWithin(t, name, base(mutate)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	for name, mutate := range runs {
		runWithin(t, name, base(mutate))
	}
}

// runWithin runs the server with its stop signal already sent, so an
// accepted configuration serves, drains and returns. It returns run's
// error, which must fit on one line (main prints it as the one line before
// exit 1), and fails the test if run is still going after a minute.
func runWithin(t *testing.T, name string, o srvOptions) error {
	t.Helper()
	sig := make(chan os.Signal, 1)
	sig <- os.Interrupt
	done := make(chan error, 1)
	go func() { done <- run(o, sig) }()
	select {
	case err := <-done:
		if err != nil && strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: error spans lines: %q", name, err)
		}
		return err
	case <-time.After(time.Minute):
		t.Fatalf("%s: still running after a minute", name)
		return nil
	}
}

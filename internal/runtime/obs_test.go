package runtime

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"

	"gllm/internal/engine"
	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/sched"
)

func obsRuntime(t *testing.T, rec *obs.Recorder, logBuf *bytes.Buffer) *Runtime {
	t.Helper()
	cfg := Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
		TimeScale: 0,
		Spans:     rec,
	}
	if logBuf != nil {
		cfg.Logger = slog.New(slog.NewTextHandler(logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	}
	rt, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestRuntimeRecordsSpans(t *testing.T) {
	rec := obs.NewRecorder(4, 0)
	rt := obsRuntime(t, rec, nil)
	h, err := rt.Submit(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	collect(t, h)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	byKindStage := map[obs.Kind]map[int16]int{}
	for _, s := range rec.Spans() {
		m := byKindStage[s.Kind]
		if m == nil {
			m = map[int16]int{}
			byKindStage[s.Kind] = m
		}
		m[s.Stage]++
	}
	// Every stage executed every micro-batch, transfers on the first three
	// links, prep once per injection.
	for stage := int16(0); stage < 4; stage++ {
		if byKindStage[obs.KindExec][stage] == 0 {
			t.Fatalf("no exec spans on stage %d: %v", stage, byKindStage)
		}
	}
	for stage := int16(0); stage < 3; stage++ {
		if byKindStage[obs.KindXfer][stage] == 0 {
			t.Fatalf("no xfer spans on link %d: %v", stage, byKindStage)
		}
	}
	if byKindStage[obs.KindPrep][obs.PrepStage] == 0 {
		t.Fatal("no prep spans")
	}
	exec := byKindStage[obs.KindExec]
	if exec[0] != exec[1] || exec[0] != exec[3] {
		t.Fatalf("stages saw different micro-batch counts: %v", exec)
	}

	// The exported trace must decode cleanly.
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := obs.ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stages != 4 {
		t.Fatalf("decoded stages = %d", dec.Stages)
	}
}

func TestSnapshotBubbleAccounting(t *testing.T) {
	rt := testRuntime(t, true)
	h, err := rt.Submit(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	collect(t, h)
	s := rt.Stats()
	if len(s.StageBusySeconds) != 4 {
		t.Fatalf("StageBusySeconds = %v", s.StageBusySeconds)
	}
	if s.Uptime <= 0 {
		t.Fatalf("uptime = %v", s.Uptime)
	}
	// TimeScale 0 ⇒ nothing is emulated ⇒ no stage was ever busy.
	for i, busy := range s.StageBusySeconds {
		if busy != 0 {
			t.Fatalf("stage %d busy %v s with nothing emulated", i, busy)
		}
	}
	if s.BubbleRate != 1 {
		t.Fatalf("bubble rate = %v, want 1", s.BubbleRate)
	}
}

func TestLifecycleLogging(t *testing.T) {
	var logBuf bytes.Buffer
	rt := obsRuntime(t, nil, &logBuf)
	h, err := rt.Submit(32, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first token so the cancel provably lands after admission.
	select {
	case <-h.Events:
	case <-time.After(5 * time.Second):
		t.Fatal("no first token")
	}
	h.Cancel()
	<-h.Done()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	out := logBuf.String()
	for _, want := range []string{"request admitted", "request aborted", "reason=cancelled", "drain started", "runtime stopped"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log missing %q:\n%s", want, out)
		}
	}
}

func TestAbortedRequestsExcludedFromLatencyStats(t *testing.T) {
	rt := testRuntime(t, true)
	done, err := rt.Submit(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	collect(t, done)
	victim, err := rt.Submit(16, 4096)
	if err != nil {
		t.Fatal(err)
	}
	victim.Cancel()
	<-victim.Done()

	// One completed generation feeds the latency histograms; the abort
	// shows up only where every terminated request does.
	sc := rt.Metrics().Scrape()
	if sc.TTFT.Count != 1 || sc.E2E.Count != 1 || sc.Queue.Count != 2 {
		t.Fatalf("scrape counts: ttft %d e2e %d queue %d", sc.TTFT.Count, sc.E2E.Count, sc.Queue.Count)
	}
	by := rt.Metrics().ByReason()
	if by["cancelled"] != 1 || by["length"] != 1 {
		t.Fatalf("ByReason = %v", by)
	}
}

// Async and coupled runtimes differ on the live path only in the driver's
// prep charge, so each mode's prep spans must be at least its own model's
// price. A timer never fires early, so only lower bounds are asserted.
func TestLivePrepChargesRuntimeModel(t *testing.T) {
	const scale = 0.1
	for _, tc := range []struct {
		async bool
		floor func(tokens int) time.Duration
	}{
		{false, func(tokens int) time.Duration {
			m := engine.VLLMRuntime
			return m.PrepBase + m.PrepPerSeq + time.Duration(tokens)*m.PrepPerToken
		}},
		{true, func(int) time.Duration { return engine.GLLMRuntime.AsyncResidual }},
	} {
		rec := obs.NewRecorder(4, 0)
		rt, err := Start(Config{
			Model:     model.Qwen25_14B,
			GPU:       gpu.L20,
			Topo:      network.IntraNode(4, network.PCIe),
			Scheduler: sched.NewDefaultThrottle(),
			Async:     tc.async,
			TimeScale: scale,
			Spans:     rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		// A graceful shutdown serves both requests before it returns.
		for i := 0; i < 2; i++ {
			if _, err := rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: 32, MaxTokens: 4}); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = rt.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		preps := 0
		for _, s := range rec.Spans() {
			if s.Kind != obs.KindPrep {
				continue
			}
			preps++
			if want := time.Duration(float64(tc.floor(int(s.Tokens))) * scale); s.Dur() < want {
				t.Errorf("async=%v: prep span of %d tokens lasted %v, want ≥ %v", tc.async, s.Tokens, s.Dur(), want)
			}
		}
		if preps == 0 {
			t.Errorf("async=%v: no prep spans", tc.async)
		}
	}
}

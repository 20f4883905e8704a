package runtime

import (
	"bytes"
	"context"
	"log/slog"
	"slices"
	"strings"
	"testing"
	"time"

	"gllm/internal/engine"
	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/request"
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
	if err := obs.WriteChrome(&buf, rec, 0); err != nil {
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

// batchLog is an observer that keeps each scheduled batch's shape and
// sequence count, indexed by its injection ordinal minus one, and when
// each batch retired, in retire order.
type batchLog struct {
	shapes  []gpu.BatchShape
	seqs    []int
	retired []time.Duration
}

func (l *batchLog) BeforeSchedule(time.Duration) {}
func (l *batchLog) AfterSchedule(b *sched.Batch, _ time.Duration) {
	if !b.Empty() {
		l.shapes = append(l.shapes, b.Shape())
		l.seqs = append(l.seqs, len(b.Chunks)+len(b.Decodes))
	}
}
func (l *batchLog) AfterComplete(_ *sched.Batch, _ []*request.Request, now time.Duration) {
	l.retired = append(l.retired, now)
}
func (l *batchLog) Final(time.Duration) error { return nil }
func (l *batchLog) Err() error                { return nil }

// pricedRun serves three requests to the end on a PP-4 runtime at the given
// TimeScale and returns its spans, the batches it scheduled and the runtime.
func pricedRun(t *testing.T, async bool, scale float64) ([]obs.Span, *batchLog, *Runtime) {
	t.Helper()
	rec, log := obs.NewRecorder(4, 0), new(batchLog)
	rt, err := Start(Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     async,
		TimeScale: scale,
		Spans:     rec,
		observe:   func(*sched.Pool, sched.Scheduler) engine.BatchObserver { return log },
	})
	if err != nil {
		t.Fatal(err)
	}
	// A graceful shutdown serves every request before it returns, and the
	// driver's exit orders its writes to log before this goroutine's reads.
	for i := 0; i < 3; i++ {
		if _, err := rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: 32 << i, MaxTokens: 4}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	return rec.Spans(), log, rt
}

// Async and coupled runtimes differ on the live path only in the driver's
// prep charge, so each mode's prep spans must be exactly its own model's
// price, scaled: the spans are the windows the driver computed.
func TestLivePrepChargesRuntimeModel(t *testing.T) {
	const scale = 0.1
	for _, tc := range []struct {
		async bool
		model engine.RuntimeModel
	}{{false, engine.VLLMRuntime}, {true, engine.GLLMRuntime}} {
		spans, log, _ := pricedRun(t, tc.async, scale)
		preps := 0
		for _, s := range spans {
			if s.Kind != obs.KindPrep {
				continue
			}
			preps++
			price := tc.model.PrepTime(log.seqs[s.Seq-1], int(s.Tokens))
			if want := time.Duration(float64(price) * scale); s.Dur() != want {
				t.Errorf("async=%v: prep span of batch %d lasted %v, want %v", tc.async, s.Seq, s.Dur(), want)
			}
		}
		if preps == 0 {
			t.Errorf("async=%v: no prep spans", tc.async)
		}
	}
}

// Every stage window is the batch's scaled price to the nanosecond and
// opens at the later of the stage's previous end and the batch's arrival:
// the end of its prep at stage 0, of the hop into it after that. A span
// that includes timer slack, or a stage that starts a batch late, fails.
func TestLivePipelineWindowsArePriced(t *testing.T) {
	const scale = 0.01
	scaled := func(d time.Duration) time.Duration { return time.Duration(float64(d) * scale) }
	for _, async := range []bool{true, false} {
		spans, log, rt := pricedRun(t, async, scale)
		plan := engine.Config{Model: rt.cfg.Model, Topo: rt.cfg.Topo}
		type key struct {
			kind       obs.Kind
			stage, seq int
		}
		at := map[key]obs.Span{}
		for _, s := range spans {
			at[key{s.Kind, int(s.Stage), int(s.Seq)}] = s
		}
		if len(log.shapes) == 0 {
			t.Fatalf("async=%v: nothing scheduled", async)
		}
		prevEnd := make([]time.Duration, len(rt.stageLayers))
		for i, shape := range log.shapes {
			seq, tokens := i+1, shape.Tokens()
			arrival := at[key{obs.KindPrep, obs.PrepStage, seq}].End
			for s, layers := range rt.stageLayers {
				exec, ok := at[key{obs.KindExec, s, seq}]
				if !ok {
					t.Fatalf("async=%v: batch %d has no exec span on stage %d", async, seq, s)
				}
				if want := scaled(time.Duration(layers) * rt.cost.LayerTime(shape)); exec.Dur() != want {
					t.Errorf("async=%v: batch %d stage %d executed %v, want %v", async, seq, s, exec.Dur(), want)
				}
				if want := max(prevEnd[s], arrival); exec.Start != want {
					t.Errorf("async=%v: batch %d stage %d opened at %v, want %v", async, seq, s, exec.Start, want)
				}
				prevEnd[s] = exec.End
				if s+1 == len(rt.stageLayers) {
					break
				}
				xfer := at[key{obs.KindXfer, s, seq}]
				if want := scaled(plan.HopTime(s, tokens)); xfer.Start != exec.End || xfer.Dur() != want {
					t.Errorf("async=%v: batch %d hop %d spans [%v, %v], want %v from %v",
						async, seq, s, xfer.Start, xfer.End, want, exec.End)
				}
				arrival = xfer.End
			}
		}
	}
}

// A batch's busy time is booked when it is injected: on a scaled runtime
// every stage shows the first batch, and the bubble rate, taken over the
// booked end, is in [0, 1), before that batch retires. Once drained, each
// stage's busy time is its exec spans' to the nanosecond.
func TestStageBusyBookedAtInjection(t *testing.T) {
	log := new(batchLog)
	rt, err := Start(Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
		TimeScale: 1,
		observe:   func(*sched.Pool, sched.Scheduler) engine.BatchObserver { return log },
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: 512, MaxTokens: 2})
	if err != nil {
		t.Fatal(err)
	}
	var seen Snapshot
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		seen = rt.Stats()
		if seen.Iterations >= 1 && !slices.Contains(seen.StageBusySeconds, 0) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no stage busy time after the first injection: %+v", seen)
		}
	}
	collectBatched(t, h)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if len(log.retired) == 0 || seen.Uptime >= log.retired[0] {
		t.Fatalf("busy time first read at %v, the first batch retired at %v", seen.Uptime, log.retired)
	}
	if !(seen.BubbleRate >= 0 && seen.BubbleRate < 1) {
		t.Fatalf("bubble rate %v with every stage busy %v s", seen.BubbleRate, seen.StageBusySeconds)
	}

	spans, _, rt := pricedRun(t, true, 0.01)
	acc := obs.AccountSpans(spans, 4, 0)
	for s, busy := range rt.Stats().StageBusySeconds {
		if want := acc.Stages[s].Busy.Seconds(); busy != want {
			t.Errorf("stage %d busy %v s after drain, its exec spans %v s", s, busy, want)
		}
	}
}

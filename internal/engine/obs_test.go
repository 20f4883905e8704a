package engine

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/sched"
)

// The observability acceptance criterion: spans recorded during a pipeline
// run, exported as Chrome trace-event JSON and decoded back, must
// reconstruct each stage's busy time and the aggregate bubble rate to
// within 1% of the engine's own accounting (Result.StageBusy /
// Result.BubbleFraction).
func TestPipelineSpansReconstructBubbleAccounting(t *testing.T) {
	items := shortTrace(3, 2, 20*time.Second)
	cfg := testConfig(sched.NewDefaultThrottle(), GLLMRuntime)
	rec := obs.NewRecorder(cfg.Topo.GPUs(), 0)
	cfg.Spans = rec
	res, err := RunPipeline(cfg, items)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d spans; grow capacity for this test", rec.Dropped())
	}
	if len(res.StageBusy) != cfg.Topo.GPUs() {
		t.Fatalf("StageBusy has %d entries", len(res.StageBusy))
	}

	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, rec, 0); err != nil {
		t.Fatal(err)
	}
	dec, err := obs.ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stages != cfg.Topo.GPUs() {
		t.Fatalf("decoded %d stages, want %d", dec.Stages, cfg.Topo.GPUs())
	}
	// The engine's bubble accounting runs over [0, makespan]; account the
	// decoded spans over the same window.
	acc := dec.Account(res.Makespan)
	for i, want := range res.StageBusy {
		got := acc.Stages[i].Busy
		if want == 0 {
			t.Fatalf("stage %d never busy", i)
		}
		if relErr := math.Abs(float64(got-want)) / float64(want); relErr > 0.01 {
			t.Fatalf("stage %d busy: trace %v vs engine %v (%.2f%% off)",
				i, got, want, 100*relErr)
		}
	}
	if diff := math.Abs(acc.BubbleRate - res.BubbleFraction); diff > 0.01 {
		t.Fatalf("bubble rate: trace %v vs engine %v", acc.BubbleRate, res.BubbleFraction)
	}
}

// shapeLog records the shape of every batch the loop injects, so a span's
// injection ordinal Seq indexes shapes[Seq-1].
type shapeLog struct {
	noObserver
	shapes []gpu.BatchShape
}

func (l *shapeLog) AfterSchedule(b *sched.Batch, _ time.Duration) {
	if !b.Empty() {
		l.shapes = append(l.shapes, b.Shape())
	}
}

// A chain prices a batch once and charges stage i layers[i] times that
// price. Every golden cell splits its layers evenly, so this PP-5 run, where
// 48 layers split 10,10,10,9,9, is what pins the per-stage multiplier.
func TestUnevenStageSplitPricing(t *testing.T) {
	cfg := testConfig(sched.NewDefaultThrottle(), GLLMRuntime)
	cfg.Topo = network.IntraNode(5, network.PCIe)
	layers := cfg.Model.StageLayers(5)
	if !slices.Equal(layers, []int{10, 10, 10, 9, 9}) {
		t.Fatalf("StageLayers(5) = %v", layers)
	}
	log := &shapeLog{}
	cfg.Observer = func(*sched.Pool, sched.Scheduler) BatchObserver { return log }
	rec := obs.NewRecorder(5, 0)
	cfg.Spans = rec
	res, err := RunPipeline(cfg, shortTrace(7, 2, 10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d spans", rec.Dropped())
	}
	cost := gpu.NewCostModel(cfg.Model, cfg.GPU)
	execs := 0
	for _, s := range rec.Spans() {
		if s.Kind != obs.KindExec {
			continue
		}
		want := time.Duration(layers[s.Stage]) * cost.LayerTime(log.shapes[s.Seq-1])
		if s.Dur() != want {
			t.Fatalf("batch %d on stage %d lasts %v, want %d layers × LayerTime = %v", s.Seq, s.Stage, s.Dur(), layers[s.Stage], want)
		}
		execs++
	}
	if execs != 5*res.Injections || res.Injections == 0 {
		t.Fatalf("%d exec spans for %d injections over 5 stages", execs, res.Injections)
	}
}

// The coupled-runtime path serializes prep on the driver CPU; those spans
// must land on the prep pseudo-lane and not disturb stage accounting.
func TestPipelineCoupledRuntimePrepSpans(t *testing.T) {
	items := shortTrace(4, 2, 10*time.Second)
	cfg := testConfig(sched.NewSarathi(2048), VLLMRuntime)
	rec := obs.NewRecorder(cfg.Topo.GPUs(), 0)
	cfg.Spans = rec
	res, err := RunPipeline(cfg, items)
	if err != nil {
		t.Fatal(err)
	}
	acc := obs.AccountSpans(rec.Spans(), rec.Stages(), res.Makespan)
	if acc.PrepTime <= 0 {
		t.Fatal("coupled runtime recorded no prep time")
	}
	prepSpans := 0
	for _, s := range rec.Spans() {
		if s.Kind == obs.KindPrep {
			if s.Stage != obs.PrepStage {
				t.Fatalf("prep span on stage %d", s.Stage)
			}
			prepSpans++
		}
	}
	if prepSpans != res.Injections {
		t.Fatalf("prep spans = %d, injections = %d", prepSpans, res.Injections)
	}
}

func TestTensorSpans(t *testing.T) {
	items := shortTrace(5, 1, 10*time.Second)
	cfg := testConfig(sched.NewDefaultThrottle(), GLLMRuntime)
	rec := obs.NewRecorder(1, 0)
	cfg.Spans = rec
	res, err := RunTensor(cfg, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StageBusy) != 1 || res.StageBusy[0] <= 0 {
		t.Fatalf("StageBusy = %v", res.StageBusy)
	}
	acc := obs.AccountSpans(rec.Spans(), rec.Stages(), res.Makespan)
	if got, want := acc.Stages[0].Busy, res.StageBusy[0]; got != want {
		t.Fatalf("device busy: spans %v vs engine %v", got, want)
	}
	if diff := math.Abs(acc.BubbleRate - res.BubbleFraction); diff > 1e-9 {
		t.Fatalf("bubble: spans %v vs engine %v", acc.BubbleRate, res.BubbleFraction)
	}
}

func TestDisaggregatedSpans(t *testing.T) {
	items := shortTrace(6, 1.5, 10*time.Second)
	cfg := DisaggConfig{Config: testConfig(nil, GLLMRuntime), PrefillGPUs: 2}
	total := cfg.Topo.GPUs()
	rec := obs.NewRecorder(total, 0)
	cfg.Spans = rec
	res, err := RunDisaggregated(cfg, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StageBusy) != total {
		t.Fatalf("StageBusy has %d entries, want %d", len(res.StageBusy), total)
	}
	acc := obs.AccountSpans(rec.Spans(), rec.Stages(), res.Makespan)
	for i, want := range res.StageBusy {
		if got := acc.Stages[i].Busy; got != want {
			t.Fatalf("stage %d busy: spans %v vs engine %v", i, got, want)
		}
	}
	// The KV hand-off rides the boundary link (source stage PrefillGPUs−1).
	if res.KVTransfers > 0 && acc.Stages[cfg.PrefillGPUs-1].Transfer <= 0 {
		t.Fatal("no transfer time on the KV hand-off link")
	}
}

// The run's ledger is whole-run however small the span ring: a run through
// an 8-span recorder books the same busy, transfer and prep totals as one
// through a recorder that keeps every span, and those totals are what the
// kept spans sum to.
func TestWrappedRecorderKeepsExactTotals(t *testing.T) {
	items := shortTrace(8, 2, 10*time.Second)
	for _, tc := range []struct {
		name    string
		coupled bool // a VLLMRuntime run: its prep is never zero
		run     func(spans *obs.Recorder) (*Result, error)
	}{
		{"pipeline-gllm", false, func(spans *obs.Recorder) (*Result, error) {
			cfg := testConfig(sched.NewDefaultThrottle(), GLLMRuntime)
			cfg.Spans = spans
			return RunPipeline(cfg, items)
		}},
		{"pipeline-vllm", true, func(spans *obs.Recorder) (*Result, error) {
			cfg := testConfig(sched.NewSarathi(2048), VLLMRuntime)
			cfg.Spans = spans
			return RunPipeline(cfg, items)
		}},
		{"disagg", false, func(spans *obs.Recorder) (*Result, error) {
			cfg := DisaggConfig{Config: testConfig(nil, GLLMRuntime), PrefillGPUs: 2}
			cfg.Spans = spans
			return RunDisaggregated(cfg, items)
		}},
		{"tknp", false, func(spans *obs.Recorder) (*Result, error) {
			cfg := tknpConfig(network.IntraNode(4, network.PCIe), 2)
			cfg.Spans = spans
			return RunTokenParallel(cfg, items)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wrapped, whole := obs.NewRecorder(4, 8), obs.NewRecorder(4, 0)
			small, err := tc.run(wrapped)
			if err != nil {
				t.Fatal(err)
			}
			full, err := tc.run(whole)
			if err != nil {
				t.Fatal(err)
			}
			if wrapped.Dropped() == 0 || whole.Dropped() != 0 {
				t.Fatalf("dropped %d of the small ring's spans, %d of the whole one's", wrapped.Dropped(), whole.Dropped())
			}
			if !slices.Equal(small.StageBusy, full.StageBusy) || !slices.Equal(small.StageTransfer, full.StageTransfer) ||
				small.PrepTime != full.PrepTime {
				t.Fatalf("wrapped run booked busy %v transfer %v prep %v, whole run %v %v %v",
					small.StageBusy, small.StageTransfer, small.PrepTime, full.StageBusy, full.StageTransfer, full.PrepTime)
			}
			spans := obs.AccountSpans(whole.Spans(), whole.Stages(), full.Makespan)
			booked := obs.Account(full.StageBusy, full.StageTransfer, full.PrepTime, full.Makespan)
			booked.Spans = spans.Spans
			if !reflect.DeepEqual(booked, spans) {
				t.Fatalf("the run's ledger:\n%s\nits spans:\n%s", booked.String(), spans.String())
			}
			if tc.coupled && full.PrepTime == 0 {
				t.Fatal("the coupled runtime booked no prep")
			}
		})
	}
}

package engine

import (
	"errors"
	"math"
	"testing"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/sched"
	"gllm/internal/workload"
)

func tknpConfig(topo network.Topology, rootTP int) TokenParallelConfig {
	return TokenParallelConfig{
		Config: Config{
			Model:     model.Qwen25_14B,
			GPU:       gpu.L20,
			Topo:      topo,
			MemUtil:   0.9,
			Scheduler: sched.NewSarathi(2048),
			Runtime:   GLLMRuntime,
		},
		RootTP: rootTP,
	}
}

func TestTokenParallelServesTraceToCompletion(t *testing.T) {
	items := shortTrace(1, 1, 10*time.Second)
	res, err := RunTokenParallel(tknpConfig(network.IntraNode(4, network.PCIe), 2), items)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Requests != len(items) {
		t.Fatalf("requests = %d, want %d", res.Report.Requests, len(items))
	}
	if res.Report.TokenThroughput <= 0 {
		t.Fatal("zero throughput")
	}
	if len(res.StageBusy) != 4 {
		t.Fatalf("StageBusy has %d entries, want 4", len(res.StageBusy))
	}
	// Root ranks do projections + MLP on top of their attention partition.
	if res.StageBusy[0] <= res.StageBusy[3] {
		t.Fatalf("root busy %v not above peer busy %v", res.StageBusy[0], res.StageBusy[3])
	}
	if res.BubbleFraction < 0 || res.BubbleFraction >= 1 {
		t.Fatalf("bubble fraction = %v", res.BubbleFraction)
	}
}

func TestTokenParallelDeterministic(t *testing.T) {
	items := shortTrace(9, 1, 8*time.Second)
	a, err := RunTokenParallel(tknpConfig(network.IntraNode(4, network.PCIe), 2), items)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTokenParallel(tknpConfig(network.IntraNode(4, network.PCIe), 2), items)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Injections != b.Injections || a.TknpCommBytes != b.TknpCommBytes {
		t.Fatal("TKNP runs not deterministic")
	}
}

func TestTokenParallelRootTPBounds(t *testing.T) {
	if _, err := RunTokenParallel(tknpConfig(network.IntraNode(4, network.PCIe), 5),
		workload.Uniform(1, 10, 2, 0)); err == nil {
		t.Fatal("root TP 5 on 4 GPUs accepted")
	}
	if _, err := RunTokenParallel(tknpConfig(network.IntraNode(4, network.PCIe), -1),
		workload.Uniform(1, 10, 2, 0)); err == nil {
		t.Fatal("negative root TP accepted")
	}
	// RootTP zero defaults to a single root rank.
	if _, err := RunTokenParallel(tknpConfig(network.IntraNode(4, network.PCIe), 0),
		workload.Uniform(1, 10, 2, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestTokenParallelSingleGPU(t *testing.T) {
	res, err := RunTokenParallel(tknpConfig(network.IntraNode(1, network.PCIe), 1),
		workload.Uniform(3, 128, 16, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Requests != 3 {
		t.Fatalf("requests = %d", res.Report.Requests)
	}
}

func TestTokenParallelModelTooBig(t *testing.T) {
	cfg := tknpConfig(network.IntraNode(1, network.PCIe), 1)
	cfg.Model = model.Llama31_100B
	_, err := RunTokenParallel(cfg, workload.Uniform(1, 10, 2, 0))
	if !errors.Is(err, ErrModelDoesNotFit) {
		t.Fatalf("100B on a single L20: err = %v, want ErrModelDoesNotFit", err)
	}
}

// TknpCommBytes must account exactly for the scatter (queries + fresh KV
// entries) and gather (attention outputs) payloads of every scheduled
// token across every layer.
func TestTokenParallelCommBytesExact(t *testing.T) {
	items := shortTrace(5, 1, 6*time.Second)
	cfg := tknpConfig(network.IntraNode(4, network.PCIe), 2)
	var log BatchLog
	cfg.Observer = log.Observer(nil)
	res, err := RunTokenParallel(cfg, items)
	if err != nil {
		t.Fatal(err)
	}
	var tokens int64
	for _, b := range log.Batches {
		tokens += int64(b.Prefill + b.Decode)
	}
	m := cfg.Model
	perTokenPerLayer := 2*m.ActivationBytesPerToken() + m.KVBytesPerTokenPerLayer()
	want := tokens * int64(m.NumLayers) * perTokenPerLayer
	if res.TknpCommBytes != want {
		t.Fatalf("TknpCommBytes = %d, want %d", res.TknpCommBytes, want)
	}
	if res.TknpCommBytes == 0 {
		t.Fatal("no communication accounted")
	}
}

// The TKNP spans tile the iteration window exactly, so trace-side busy
// accounting must reconstruct the engine's StageBusy and bubble rate.
func TestTokenParallelSpansReconstructBusyAccounting(t *testing.T) {
	items := shortTrace(3, 1, 10*time.Second)
	cfg := tknpConfig(network.IntraNode(4, network.PCIe), 2)
	rec := obs.NewRecorder(cfg.Topo.GPUs(), 0)
	cfg.Spans = rec
	res, err := RunTokenParallel(cfg, items)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d spans", rec.Dropped())
	}
	acc := rec.AccountOver(res.Makespan)
	for i, want := range res.StageBusy {
		got := acc.Stages[i].Busy
		if want == 0 {
			t.Fatalf("stage %d never busy", i)
		}
		if relErr := math.Abs(float64(got-want)) / float64(want); relErr > 0.01 {
			t.Fatalf("stage %d busy: trace %v vs engine %v (%.2f%% off)", i, got, want, 100*relErr)
		}
	}
}

// The regime TKNP is built for: large batch, long context, decode-dominant,
// on a 16-GPU NVLink box. TP-16 over-shards grouped-query attention (only
// 8 KV heads, so per-rank KV I/O stops shrinking at degree 8) and pays
// 2(n-1) ring-step latencies per layer; PP's TPOT is a full pipeline round
// trip streaming every layer's weights serially. TKNP shards KV by token
// across all 16 ranks, streams weights only over the root group, and pays
// a single scatter+gather latency per layer.
func TestTokenParallelWinsLongContextLargeBatchDecode(t *testing.T) {
	topo := network.IntraNode(16, network.NVLink)
	items := workload.Uniform(64, 8192, 64, 0) // 64 requests at t=0, 8k context

	tknpCfg := tknpConfig(topo, 8)
	tknpCfg.GPU = gpu.A100_40G
	tknp, err := RunTokenParallel(tknpCfg, items)
	if err != nil {
		t.Fatal(err)
	}

	tpCfg := tpConfig(topo)
	tpCfg.GPU = gpu.A100_40G
	tpCfg.Scheduler = sched.NewSarathi(2048)
	tpCfg.Runtime = GLLMRuntime
	tp, err := RunTensor(tpCfg, items)
	if err != nil {
		t.Fatal(err)
	}

	ppCfg := tpConfig(topo)
	ppCfg.GPU = gpu.A100_40G
	ppCfg.Scheduler = sched.NewSarathi(2048)
	ppCfg.Runtime = GLLMRuntime
	pp, err := RunPipeline(ppCfg, items)
	if err != nil {
		t.Fatal(err)
	}

	if tknp.Report.TPOT.Mean >= tp.Report.TPOT.Mean {
		t.Fatalf("TKNP TPOT %.4fs not below TP-16 %.4fs", tknp.Report.TPOT.Mean, tp.Report.TPOT.Mean)
	}
	if tknp.Report.TPOT.Mean >= pp.Report.TPOT.Mean {
		t.Fatalf("TKNP TPOT %.4fs not below PP-16 %.4fs", tknp.Report.TPOT.Mean, pp.Report.TPOT.Mean)
	}
}

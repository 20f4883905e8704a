package engine

import (
	"math"
	"testing"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/sched"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// testConfig is a 14B / 4xL20 intra-node pipeline deployment.
func testConfig(s sched.Scheduler, rt RuntimeModel) Config {
	return Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		MemUtil:   0.9,
		Scheduler: s,
		Runtime:   rt,
	}
}

func shortTrace(seed uint64, rate float64, window time.Duration) []workload.Item {
	return workload.Poisson(stats.NewRNG(seed), workload.ShareGPT, rate, window)
}

func TestPipelineServesTraceToCompletion(t *testing.T) {
	items := shortTrace(1, 2, 20*time.Second)
	res, err := RunPipeline(testConfig(sched.NewDefaultThrottle(), GLLMRuntime), items)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != len(items) {
		t.Fatalf("requests = %d, want %d", res.Requests, len(items))
	}
	if res.Report.Requests != len(items) {
		t.Fatalf("report requests = %d", res.Report.Requests)
	}
	if res.Report.TTFT.Mean <= 0 {
		t.Fatalf("TTFT mean = %v", res.Report.TTFT.Mean)
	}
	if res.Report.TokenThroughput <= 0 {
		t.Fatal("zero throughput")
	}
	if res.Makespan <= 0 || res.Makespan > 10*time.Minute {
		t.Fatalf("makespan = %v", res.Makespan)
	}
	if res.Injections == 0 {
		t.Fatal("no micro-batches injected")
	}
	if res.BubbleFraction < 0 || res.BubbleFraction >= 1 {
		t.Fatalf("bubble fraction = %v", res.BubbleFraction)
	}
	if res.SchedulerName != "gllm" || res.RuntimeName != "gllm" {
		t.Fatalf("names = %s/%s", res.SchedulerName, res.RuntimeName)
	}
}

func TestPipelineDeterministic(t *testing.T) {
	items := shortTrace(7, 2, 10*time.Second)
	a, err := RunPipeline(testConfig(sched.NewDefaultThrottle(), GLLMRuntime), items)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPipeline(testConfig(sched.NewDefaultThrottle(), GLLMRuntime), items)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("makespans differ: %v vs %v", a.Makespan, b.Makespan)
	}
	if a.Injections != b.Injections {
		t.Fatalf("injections differ: %d vs %d", a.Injections, b.Injections)
	}
	if a.Report.TTFT.Mean != b.Report.TTFT.Mean {
		t.Fatal("TTFT differs across identical runs")
	}
}

func TestSarathiTokenVolatilityExceedsGLLM(t *testing.T) {
	// Figure 1's claim: Sarathi's per-iteration token counts fluctuate far
	// more than gLLM's balanced schedule under the same workload.
	items := shortTrace(42, 4, 20*time.Second)

	tokenStd := func(cfg Config) float64 {
		var log BatchLog
		cfg.Observer = log.Observer(nil)
		if _, err := RunPipeline(cfg, items); err != nil {
			t.Fatal(err)
		}
		return stats.Summarize(log.Tokens()).Std
	}
	sarStd := tokenStd(testConfig(sched.NewSarathi(2048), VLLMRuntime))
	glStd := tokenStd(testConfig(sched.NewDefaultThrottle(), GLLMRuntime))
	if glStd >= sarStd {
		t.Fatalf("gLLM token std %.1f >= Sarathi %.1f — balancing broken", glStd, sarStd)
	}
}

func TestGLLMThroughputBeatsVLLMBaseline(t *testing.T) {
	// Headline claim at a demanding rate: gLLM (throttled scheduler +
	// async runtime) sustains higher throughput / lower E2E than the
	// vLLM-like baseline (Sarathi + coupled runtime).
	items := shortTrace(11, 6, 20*time.Second)

	vllm, err := RunPipeline(testConfig(sched.NewSarathi(2048), VLLMRuntime), items)
	if err != nil {
		t.Fatal(err)
	}
	gl, err := RunPipeline(testConfig(sched.NewDefaultThrottle(), GLLMRuntime), items)
	if err != nil {
		t.Fatal(err)
	}
	if gl.Makespan >= vllm.Makespan {
		t.Fatalf("gLLM makespan %v >= vLLM %v", gl.Makespan, vllm.Makespan)
	}
	if gl.Report.E2E.Mean >= vllm.Report.E2E.Mean {
		t.Fatalf("gLLM E2E %.2fs >= vLLM %.2fs", gl.Report.E2E.Mean, vllm.Report.E2E.Mean)
	}
}

func TestAsyncRuntimeBeatsCoupledRuntime(t *testing.T) {
	// The w/CK ablation: same Sarathi scheduler, async vs coupled runtime.
	items := shortTrace(13, 5, 15*time.Second)
	coupled, err := RunPipeline(testConfig(sched.NewSarathi(2048), VLLMRuntime), items)
	if err != nil {
		t.Fatal(err)
	}
	async, err := RunPipeline(testConfig(sched.NewSarathi(2048), GLLMRuntime), items)
	if err != nil {
		t.Fatal(err)
	}
	if async.Makespan >= coupled.Makespan {
		t.Fatalf("async runtime makespan %v >= coupled %v", async.Makespan, coupled.Makespan)
	}
}

// Figure 4's utilisation series, read from the exec spans: every window is
// a busy fraction, and the windows add back up to each stage's StageBusy.
func TestUtilizationSampling(t *testing.T) {
	const every = 500 * time.Millisecond
	cfg := testConfig(sched.NewDefaultThrottle(), GLLMRuntime)
	rec := obs.NewRecorder(cfg.Topo.GPUs(), 0)
	cfg.Spans = rec
	items := shortTrace(3, 2, 10*time.Second)
	res, err := RunPipeline(cfg, items)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("span ring dropped %d spans", rec.Dropped())
	}
	util := obs.Utilization(rec.Spans(), rec.Stages(), every, res.Makespan)
	if len(util) != 4 {
		t.Fatalf("stage util series = %d", len(util))
	}
	for i, ts := range util {
		if want := int((res.Makespan + every - 1) / every); len(ts.Points) != want {
			t.Fatalf("stage %d has %d samples, want %d", i, len(ts.Points), want)
		}
		busy := 0.0
		for _, p := range ts.Points {
			if p.V < 0 || p.V > 1.000001 {
				t.Fatalf("stage %d utilization %v out of [0,1]", i, p.V)
			}
			busy += p.V * every.Seconds()
		}
		if math.Abs(busy-res.StageBusy[i].Seconds()) > 1e-6 {
			t.Fatalf("stage %d: windows add up to %.9fs busy, StageBusy %v", i, busy, res.StageBusy[i])
		}
	}
}

func TestTraceRecording(t *testing.T) {
	cfg := testConfig(sched.NewDefaultThrottle(), GLLMRuntime)
	rec := obs.NewRecorder(cfg.Topo.GPUs(), 0)
	cfg.Spans = rec
	items := workload.Uniform(5, 200, 20, time.Second)
	res, err := RunPipeline(cfg, items)
	if err != nil {
		t.Fatal(err)
	}
	// Every injection crosses all 4 stages exactly once.
	execSpans := 0
	for _, s := range rec.Spans() {
		if s.Kind == obs.KindExec {
			execSpans++
		}
	}
	if execSpans == 0 || execSpans != res.Injections*4 {
		t.Fatalf("exec spans = %d, want %d", execSpans, res.Injections*4)
	}
	if bf := rec.AccountOver(res.Makespan).BubbleRate; bf < 0 || bf >= 1 {
		t.Fatalf("trace bubble fraction = %v", bf)
	}
}

func TestPipelineErrorPaths(t *testing.T) {
	good := testConfig(sched.NewDefaultThrottle(), GLLMRuntime)
	items := workload.Uniform(1, 10, 2, 0)

	// Model too big for topology.
	big := good
	big.Model = model.Llama31_100B
	big.Topo = network.IntraNode(2, network.PCIe)
	if _, err := RunPipeline(big, items); err == nil {
		t.Fatal("100B on 2xL20 accepted")
	}

	// Depth exceeding layer count.
	deep := good
	deep.Topo = network.IntraNode(64, network.PCIe)
	if _, err := RunPipeline(deep, items); err == nil {
		t.Fatal("depth > layers accepted")
	}

	// Nil scheduler.
	noSched := good
	noSched.Scheduler = nil
	if _, err := RunPipeline(noSched, items); err == nil {
		t.Fatal("nil scheduler accepted")
	}

	// Bad MemUtil.
	badMem := good
	badMem.MemUtil = 1.5
	if _, err := RunPipeline(badMem, items); err == nil {
		t.Fatal("MemUtil 1.5 accepted")
	}

	// Oversized request (bigger than the whole KV cache).
	huge := []workload.Item{{PromptLen: 10_000_000, OutputLen: 10}}
	if _, err := RunPipeline(good, huge); err == nil {
		t.Fatal("oversized request accepted")
	}

	// Unsorted trace.
	unsorted := []workload.Item{
		{Arrival: time.Second, PromptLen: 10, OutputLen: 2},
		{Arrival: 0, PromptLen: 10, OutputLen: 2},
	}
	if _, err := RunPipeline(good, unsorted); err == nil {
		t.Fatal("unsorted trace accepted")
	}
}

func TestIterationRecordsMatchInjections(t *testing.T) {
	items := shortTrace(5, 2, 10*time.Second)
	cfg := testConfig(sched.NewDefaultThrottle(), GLLMRuntime)
	var log BatchLog
	cfg.Observer = log.Observer(nil)
	res, err := RunPipeline(cfg, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Batches) != res.Injections {
		t.Fatalf("logged batches %d != injections %d", len(log.Batches), res.Injections)
	}
	for i, b := range log.Batches {
		if b.Prefill < 0 || b.Decode < 0 || b.Prefill+b.Decode == 0 {
			t.Fatalf("bad batch record %+v", b)
		}
		if i > 0 && b.Time < log.Batches[i-1].Time {
			t.Fatalf("batch %d at %v precedes batch %d at %v", i, b.Time, i-1, log.Batches[i-1].Time)
		}
	}
	if len(log.Tokens()) != len(log.Batches) {
		t.Fatal("series lengths inconsistent")
	}
}

func TestCPPImprovesLongPromptTTFT(t *testing.T) {
	// Chunked pipeline parallelism lets a long prompt's chunks occupy
	// consecutive pipeline slots instead of serializing full pipeline
	// round-trips, cutting TTFT for prefill-heavy traffic.
	items := workload.Uniform(6, 6000, 8, 4*time.Second)
	base := testConfig(sched.NewDefaultThrottle(), GLLMRuntime)
	off, err := RunPipeline(base, items)
	if err != nil {
		t.Fatal(err)
	}
	cppCfg := testConfig(sched.NewDefaultThrottle(), GLLMRuntime)
	cppCfg.EnableCPP = true
	on, err := RunPipeline(cppCfg, items)
	if err != nil {
		t.Fatal(err)
	}
	if on.Report.TTFT.Mean >= off.Report.TTFT.Mean {
		t.Fatalf("CPP TTFT %.3fs >= sequential %.3fs", on.Report.TTFT.Mean, off.Report.TTFT.Mean)
	}
}

func TestPrefixCacheEngineIntegration(t *testing.T) {
	items := workload.Conversations(stats.NewRNG(5),
		workload.DefaultConversationSpec(workload.ShareGPT, 2, 15*time.Second))
	if len(items) == 0 {
		t.Skip("no conversations generated")
	}
	// run returns the result and the prefill tokens its batches carried.
	run := func(prefixCache bool) (*Result, int) {
		cfg := testConfig(sched.NewDefaultThrottle(), GLLMRuntime)
		cfg.EnablePrefixCache = prefixCache
		var log BatchLog
		cfg.Observer = log.Observer(nil)
		res, err := RunPipeline(cfg, items)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, b := range log.Batches {
			n += b.Prefill
		}
		return res, n
	}
	off, offPrefill := run(false)
	on, onPrefill := run(true)
	if onPrefill >= offPrefill {
		t.Fatalf("prefix cache did not reduce prefill: %d vs %d", onPrefill, offPrefill)
	}
	if on.Report.TTFT.Mean >= off.Report.TTFT.Mean {
		t.Fatalf("prefix cache TTFT %.3fs >= baseline %.3fs", on.Report.TTFT.Mean, off.Report.TTFT.Mean)
	}
	// Output token counts are identical: caching changes compute, not results.
	if on.Report.OutputTokens != off.Report.OutputTokens {
		t.Fatal("output token counts diverged")
	}
}

// TestQuickConservationAcrossSchedulers: for random workloads, every
// scheduler/runtime combination serves every request exactly once — token
// accounting is conserved and deterministic.
func TestQuickConservationAcrossSchedulers(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		items := workload.Poisson(stats.NewRNG(seed), workload.ShareGPT, 3, 8*time.Second)
		var wantIn, wantOut int64
		for _, it := range items {
			wantIn += int64(it.PromptLen)
			wantOut += int64(it.OutputLen)
		}
		for _, s := range []sched.Scheduler{
			sched.NewSarathi(2048),
			sched.NewDefaultThrottle(),
		} {
			res, err := RunPipeline(testConfig(s, GLLMRuntime), items)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, s.Name(), err)
			}
			if res.Report.InputTokens != wantIn {
				t.Fatalf("seed %d %s: input tokens %d, want %d", seed, s.Name(), res.Report.InputTokens, wantIn)
			}
			if res.Report.OutputTokens != wantOut {
				t.Fatalf("seed %d %s: output tokens %d, want %d", seed, s.Name(), res.Report.OutputTokens, wantOut)
			}
			if res.Report.Requests != len(items) {
				t.Fatalf("seed %d %s: %d requests, want %d", seed, s.Name(), res.Report.Requests, len(items))
			}
			// Makespan cannot precede the last arrival.
			last := items[len(items)-1].Arrival
			if res.Makespan < last {
				t.Fatalf("seed %d %s: makespan %v < last arrival %v", seed, s.Name(), res.Makespan, last)
			}
		}
	}
}

// TestConservationUnderKVPressure repeats conservation with a derated cache
// where preemption-recompute churns requests through multiple lifecycles.
func TestConservationUnderKVPressure(t *testing.T) {
	items := workload.Poisson(stats.NewRNG(9), workload.ShareGPT, 4, 10*time.Second)
	var wantOut int64
	for _, it := range items {
		wantOut += int64(it.OutputLen)
	}
	cfg := Config{
		Model:     model.Qwen25_32B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		MemUtil:   0.315,
		Scheduler: sched.NewSarathi(2048),
		Runtime:   VLLMRuntime,
	}
	res, err := RunPipeline(cfg, items)
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions == 0 {
		t.Fatal("setup failed: no preemptions under derated memory")
	}
	if res.Report.OutputTokens != wantOut {
		t.Fatalf("output tokens %d, want %d (preemption corrupted accounting)",
			res.Report.OutputTokens, wantOut)
	}
}

func TestTDPipeOnlineOfflinePositioning(t *testing.T) {
	// Paper §2.4/§5: TD-Pipe's temporal disaggregation targets offline
	// (high-throughput) scenarios; gLLM targets online serving. Offline,
	// the three schedulers reach comparable throughput; online, TD-Pipe's
	// phase-waiting wrecks TTFT while gLLM stays flat.
	offline := workload.Burst(stats.NewRNG(3), workload.ShareGPT, 150, 0)
	online := workload.Poisson(stats.NewRNG(3), workload.ShareGPT, 5, 15*time.Second)

	run := func(s sched.Scheduler, items []workload.Item) *Result {
		res, err := RunPipeline(testConfig(s, GLLMRuntime), items)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		return res
	}

	offTD := run(sched.NewTDPipe(2048, 4), offline)
	offGL := run(sched.NewDefaultThrottle(), offline)
	if offTD.Report.TokenThroughput < offGL.Report.TokenThroughput*0.93 {
		t.Fatalf("offline TD-Pipe tput %.1f far below gLLM %.1f",
			offTD.Report.TokenThroughput, offGL.Report.TokenThroughput)
	}

	onTD := run(sched.NewTDPipe(2048, 4), online)
	onGL := run(sched.NewDefaultThrottle(), online)
	if onTD.Report.TTFT.Mean < 5*onGL.Report.TTFT.Mean {
		t.Fatalf("online TD-Pipe TTFT %.2fs not >> gLLM %.2fs (phase waiting missing)",
			onTD.Report.TTFT.Mean, onGL.Report.TTFT.Mean)
	}
	if onGL.Report.E2E.Mean >= onTD.Report.E2E.Mean {
		t.Fatalf("online gLLM E2E %.2f >= TD-Pipe %.2f", onGL.Report.E2E.Mean, onTD.Report.E2E.Mean)
	}
}

// Root benchmark harness: one benchmark per paper table/figure (the
// headline quantity of each figure is reported as a custom benchmark
// metric), plus ablation benches for the design choices called out in
// DESIGN.md §5 and micro-benchmarks of the hot components.
//
//	go test -bench=. -benchmem
package gllm_test

import (
	"testing"
	"time"

	"gllm/internal/core"
	"gllm/internal/engine"
	"gllm/internal/experiments"
	"gllm/internal/gpu"
	"gllm/internal/kvcache"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/request"
	"gllm/internal/sched"
	"gllm/internal/sim"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// benchScale keeps each figure regeneration to sub-second virtual windows
// so the full bench suite stays fast; use cmd/gllm-experiments -scale paper
// for the full-size runs.
func benchScale() experiments.Scale {
	return experiments.Scale{Window: 8 * time.Second, Seed: 20250704}
}

// BenchmarkFig01TokenVolatility regenerates Figure 1 and reports the
// Sarathi-to-gLLM token-count standard-deviation ratio (>1: gLLM smoother).
func BenchmarkFig01TokenVolatility(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1TokenVolatility(benchScale(), 4)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.VolatilityRatio()
	}
	b.ReportMetric(ratio, "std-ratio")
}

// BenchmarkFig04Utilization regenerates Figure 4 and reports the mean GPU
// utilization of the Sarathi baseline and its batched-token CV.
func BenchmarkFig04Utilization(b *testing.B) {
	var util, cv float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4Utilization(benchScale(), 4, experiments.SysVLLM)
		if err != nil {
			b.Fatal(err)
		}
		util, cv = res.MeanUtil, res.TokenCV
	}
	b.ReportMetric(util, "mean-util")
	b.ReportMetric(cv, "token-cv")
}

// BenchmarkFig10IntraNode regenerates a Figure 10 panel (14B, ShareGPT)
// and reports gLLM's E2E advantage over vLLM at the demanding rate.
func BenchmarkFig10IntraNode(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		sweeps, err := experiments.Fig10(benchScale(), model.Qwen25_14B, workload.ShareGPT, []float64{2, 6})
		if err != nil {
			b.Fatal(err)
		}
		var vllm, gllm experiments.Sweep
		for _, s := range sweeps {
			switch s.System {
			case "vllm":
				vllm = s
			case "gllm":
				gllm = s
			}
		}
		adv = vllm.Points[1].E2E / gllm.Points[1].E2E
	}
	b.ReportMetric(adv, "vllm/gllm-E2E")
}

// BenchmarkFig11Distributions regenerates Figure 11 and reports the
// Azure/ShareGPT mean input-length ratio (paper: 5.21).
func BenchmarkFig11Distributions(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11Distributions(uint64(i)+1, 20000)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.InputRatio
	}
	b.ReportMetric(ratio, "input-ratio")
}

// BenchmarkFig12CrossNode regenerates a Figure 12 panel (14B cross-node)
// and reports gLLM's throughput multiple over cross-node TP (SGLang).
func BenchmarkFig12CrossNode(b *testing.B) {
	var mult float64
	for i := 0; i < b.N; i++ {
		sweeps, err := experiments.Fig12(benchScale(), model.Qwen25_14B, workload.ShareGPT, []float64{2})
		if err != nil {
			b.Fatal(err)
		}
		var gllm, sglang experiments.Sweep
		for _, s := range sweeps {
			switch s.System {
			case "gllm":
				gllm = s
			case "sglang":
				sglang = s
			}
		}
		mult = gllm.Points[0].Throughput / sglang.Points[0].Throughput
	}
	b.ReportMetric(mult, "gllm/sglang-tput")
}

// BenchmarkFig13Scalability regenerates Figure 13a and reports gLLM's
// 4-GPU-over-1-GPU max-throughput speedup (paper: near-linear).
func BenchmarkFig13Scalability(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig13Intra(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.System == "gllm" && p.GPUs == 4 {
				speedup = p.SpeedupVsBase
			}
		}
	}
	b.ReportMetric(speedup, "gllm-4gpu-speedup")
}

// BenchmarkFig14SLO regenerates a Figure 14 point and reports gLLM's SLO
// attainment at a demanding rate on the 100B cross-node deployment.
func BenchmarkFig14SLO(b *testing.B) {
	var att float64
	for i := 0; i < b.N; i++ {
		sweeps, err := experiments.Fig14(benchScale(), workload.ShareGPT, []float64{1})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range sweeps {
			if s.System == "gllm" {
				att = s.Points[0].SLO
			}
		}
	}
	b.ReportMetric(att, "gllm-slo")
}

// BenchmarkFig15Ablation regenerates Figure 15 and reports the w/o-UT E2E
// degradation factor (paper: 1.38x).
func BenchmarkFig15Ablation(b *testing.B) {
	var noUT float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig15Ablation(benchScale(), 4, workload.ShareGPT)
		if err != nil {
			b.Fatal(err)
		}
		row, ok := res.Row("gllm-no-ut")
		if !ok {
			b.Fatal("missing no-ut row")
		}
		noUT = row.NormE2E
	}
	b.ReportMetric(noUT, "noUT-E2E-norm")
}

// BenchmarkFig16Sensitivity regenerates Figure 16 and reports the E2E
// improvement from #T=1 to #T=16 (paper: E2EL decreases with #T).
func BenchmarkFig16Sensitivity(b *testing.B) {
	var improve float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig16Sensitivity(benchScale(), 4, workload.ShareGPT)
		if err != nil {
			b.Fatal(err)
		}
		sw, ok := res.Sweep("#T")
		if !ok {
			b.Fatal("missing sweep")
		}
		improve = sw.Points[0].E2E / sw.Points[len(sw.Points)-1].E2E
	}
	b.ReportMetric(improve, "T1/T16-E2E")
}

// BenchmarkTable1Equivalence regenerates Table 1's quality check and
// reports 1 when gLLM and Sarathi scheduling produced identical outputs.
func BenchmarkTable1Equivalence(b *testing.B) {
	match := 0.0
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1Equivalence(7, 16, "")
		if err != nil {
			b.Fatal(err)
		}
		if res.OutputsMatch {
			match = 1
		} else {
			match = 0
		}
	}
	b.ReportMetric(match, "outputs-match")
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationDecodeDivisor sweeps eq. 4's divisor: dividing by the
// pipeline depth (the paper's choice) against half and double, reporting
// each setting's E2E.
func BenchmarkAblationDecodeDivisor(b *testing.B) {
	items := workload.Poisson(stats.NewRNG(3), workload.ShareGPT, 4, 8*time.Second)
	for _, div := range []int{2, 4, 8} {
		div := div
		b.Run(map[int]string{2: "half-depth", 4: "depth", 8: "double-depth"}[div], func(b *testing.B) {
			var e2e float64
			for i := 0; i < b.N; i++ {
				params := core.DefaultParams()
				params.DecodeDivisor = div
				res, err := engine.RunPipeline(engine.Config{
					Model:     model.Qwen25_32B,
					GPU:       gpu.L20,
					Topo:      network.IntraNode(4, network.PCIe),
					MemUtil:   0.9,
					Scheduler: sched.NewThrottle(params, core.VariantFull),
					Runtime:   engine.GLLMRuntime,
				}, items)
				if err != nil {
					b.Fatal(err)
				}
				e2e = res.Report.E2E.Mean
			}
			b.ReportMetric(e2e, "E2E-s")
		})
	}
}

// BenchmarkRuntimeSyncVsAsync compares the coupled (vLLM-like) and
// decoupled (gLLM) runtimes under the same scheduler, reporting makespans.
func BenchmarkRuntimeSyncVsAsync(b *testing.B) {
	items := workload.Poisson(stats.NewRNG(5), workload.ShareGPT, 5, 8*time.Second)
	for _, rt := range []engine.RuntimeModel{engine.VLLMRuntime, engine.GLLMRuntime} {
		rt := rt
		b.Run(rt.Name, func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				res, err := engine.RunPipeline(engine.Config{
					Model:     model.Qwen25_14B,
					GPU:       gpu.L20,
					Topo:      network.IntraNode(4, network.PCIe),
					MemUtil:   0.9,
					Scheduler: sched.NewSarathi(2048),
					Runtime:   rt,
				}, items)
				if err != nil {
					b.Fatal(err)
				}
				makespan = res.Makespan.Seconds()
			}
			b.ReportMetric(makespan, "makespan-s")
		})
	}
}

// --- Micro-benchmarks of the hot components ---

// BenchmarkSchedulerThrottle measures one gLLM scheduling decision (plus
// batch completion) over a continuously refilled pool.
func BenchmarkSchedulerThrottle(b *testing.B) {
	s := sched.NewDefaultThrottle()
	pool := sched.NewPool(kvcache.New(1<<20, 16), 4)
	items := workload.Poisson(stats.NewRNG(1), workload.ShareGPT, 50, time.Second)
	next := 0
	refill := func() {
		for j := 0; j < 16; j++ {
			it := items[next%len(items)]
			pool.Add(request.New(int64(next), 0, it.PromptLen, it.OutputLen))
			next++
		}
	}
	refill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pool.Idle() {
			refill()
		}
		batch := s.Schedule(pool, 0)
		pool.Complete(batch, time.Millisecond)
	}
}

// BenchmarkCostModelLayerTime measures the roofline estimator.
func BenchmarkCostModelLayerTime(b *testing.B) {
	cm := gpu.NewCostModel(model.Qwen25_32B, gpu.L20)
	shape := gpu.BatchShape{
		PrefillTokens: 1024,
		PrefillCtxSum: gpu.PrefillChunkCtxSum(0, 1024),
		DecodeTokens:  128,
		DecodeCtxSum:  128 * 700,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cm.StageTime(shape, 16)
	}
}

// BenchmarkKVCacheAllocFree measures paged-cache churn.
func BenchmarkKVCacheAllocFree(b *testing.B) {
	m := kvcache.New(1<<20, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := kvcache.SeqID(i)
		if err := m.Allocate(id, 512); err != nil {
			b.Fatal(err)
		}
		m.Free(id)
	}
}

// BenchmarkSimEngine measures raw event throughput of the DES kernel.
func BenchmarkSimEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sim.New()
		count := 0
		var chain func()
		chain = func() {
			count++
			if count < 1000 {
				e.After(time.Microsecond, chain)
			}
		}
		e.After(0, chain)
		e.Run()
	}
}

// BenchmarkEndToEndPipeline measures a full virtual-time serving run
// (the core engine loop) per iteration.
func BenchmarkEndToEndPipeline(b *testing.B) {
	items := workload.Poisson(stats.NewRNG(9), workload.ShareGPT, 4, 8*time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := engine.RunPipeline(engine.Config{
			Model:     model.Qwen25_14B,
			GPU:       gpu.L20,
			Topo:      network.IntraNode(4, network.PCIe),
			MemUtil:   0.9,
			Scheduler: sched.NewDefaultThrottle(),
			Runtime:   engine.GLLMRuntime,
		}, items)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCPP compares chunked-pipeline-parallel prefill against
// sequential chunks on long-prompt traffic, reporting TTFT (DESIGN.md §6:
// CPP is one of the paper's integrated optimizations).
func BenchmarkAblationCPP(b *testing.B) {
	items := workload.Uniform(8, 6000, 8, 2*time.Second)
	for _, cpp := range []bool{false, true} {
		cpp := cpp
		name := "sequential"
		if cpp {
			name = "pipelined"
		}
		b.Run(name, func(b *testing.B) {
			var ttft float64
			for i := 0; i < b.N; i++ {
				cfg := engine.Config{
					Model:     model.Qwen25_14B,
					GPU:       gpu.L20,
					Topo:      network.IntraNode(4, network.PCIe),
					MemUtil:   0.9,
					Scheduler: sched.NewDefaultThrottle(),
					Runtime:   engine.GLLMRuntime,
					EnableCPP: cpp,
				}
				res, err := engine.RunPipeline(cfg, items)
				if err != nil {
					b.Fatal(err)
				}
				ttft = res.Report.TTFT.Mean
			}
			b.ReportMetric(ttft, "TTFT-s")
		})
	}
}

// BenchmarkAblationPrefixCache compares conversation serving with and
// without prefix caching, reporting computed prefill tokens.
func BenchmarkAblationPrefixCache(b *testing.B) {
	items := workload.Conversations(stats.NewRNG(17),
		workload.DefaultConversationSpec(workload.ShareGPT, 1.5, 10*time.Second))
	if len(items) == 0 {
		b.Skip("no conversations generated")
	}
	for _, enable := range []bool{false, true} {
		enable := enable
		name := "off"
		if enable {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var prefill float64
			for i := 0; i < b.N; i++ {
				cfg := engine.Config{
					Model:             model.Qwen25_14B,
					GPU:               gpu.L20,
					Topo:              network.IntraNode(4, network.PCIe),
					MemUtil:           0.9,
					Scheduler:         sched.NewDefaultThrottle(),
					Runtime:           engine.GLLMRuntime,
					EnablePrefixCache: enable,
				}
				res, err := engine.RunPipeline(cfg, items)
				if err != nil {
					b.Fatal(err)
				}
				sum := 0
				for _, it := range res.Iterations {
					sum += it.Prefill
				}
				prefill = float64(sum)
			}
			b.ReportMetric(prefill, "prefill-tokens")
		})
	}
}

// BenchmarkAblationCostAware compares the paper's time ∝ tokens assumption
// against attention-aware decode balancing (§6 future work) on a
// long-context-heavy workload, reporting p99 TPOT.
func BenchmarkAblationCostAware(b *testing.B) {
	// Heterogeneous contexts: a few very long prompts among chat traffic.
	rng := stats.NewRNG(31)
	items := workload.Poisson(rng, workload.ShareGPT, 4, 8*time.Second)
	for i := range items {
		if i%6 == 0 {
			items[i].PromptLen = 8000 + rng.Intn(4000)
		}
	}
	for _, aware := range []bool{false, true} {
		aware := aware
		name := "token-count"
		if aware {
			name = "cost-aware"
		}
		b.Run(name, func(b *testing.B) {
			var p99 float64
			for i := 0; i < b.N; i++ {
				var s sched.Scheduler
				if aware {
					s = sched.NewCostAwareThrottle(core.DefaultParams(), model.Qwen25_14B)
				} else {
					s = sched.NewDefaultThrottle()
				}
				res, err := engine.RunPipeline(engine.Config{
					Model:     model.Qwen25_14B,
					GPU:       gpu.L20,
					Topo:      network.IntraNode(4, network.PCIe),
					MemUtil:   0.9,
					Scheduler: s,
					Runtime:   engine.GLLMRuntime,
				}, items)
				if err != nil {
					b.Fatal(err)
				}
				p99 = res.Report.TPOT.P99
			}
			b.ReportMetric(p99*1e3, "TPOT-p99-ms")
		})
	}
}

// BenchmarkMoEServing compares schedulers on the Mixtral MoE extension
// model, reporting gLLM's E2E advantage.
func BenchmarkMoEServing(b *testing.B) {
	items := workload.Poisson(stats.NewRNG(23), workload.ShareGPT, 4, 8*time.Second)
	var adv float64
	for i := 0; i < b.N; i++ {
		run := func(s sched.Scheduler, rt engine.RuntimeModel) float64 {
			res, err := engine.RunPipeline(engine.Config{
				Model:     model.Mixtral8x7B,
				GPU:       gpu.L20,
				Topo:      network.IntraNode(4, network.PCIe),
				MemUtil:   0.9,
				Scheduler: s,
				Runtime:   rt,
			}, items)
			if err != nil {
				b.Fatal(err)
			}
			return res.Report.E2E.Mean
		}
		sar := run(sched.NewSarathi(2048), engine.VLLMRuntime)
		gl := run(sched.NewDefaultThrottle(), engine.GLLMRuntime)
		adv = sar / gl
	}
	b.ReportMetric(adv, "sarathi/gllm-E2E")
}

// BenchmarkSchedulingEvolution runs the §2.2 lineage comparison and
// reports batch-level-to-gLLM E2E improvement.
func BenchmarkSchedulingEvolution(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.SchedulingEvolution(benchScale(), 4, workload.ShareGPT)
		if err != nil {
			b.Fatal(err)
		}
		batch, _ := res.Row("batch-level")
		gllm, _ := res.Row("gllm")
		improvement = batch.E2E / gllm.E2E
	}
	b.ReportMetric(improvement, "batch/gllm-E2E")
}

// BenchmarkVirtualEngines compares vLLM's actual PP layout (static
// virtual-engine request partitioning) against the greedy global Sarathi
// and gLLM, reporting E2E latencies.
func BenchmarkVirtualEngines(b *testing.B) {
	items := workload.Poisson(stats.NewRNG(41), workload.ShareGPT, 5, 8*time.Second)
	for _, tc := range []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"sarathi-global", func() sched.Scheduler { return sched.NewSarathi(2048) }},
		{"vllm-ve", func() sched.Scheduler { return sched.NewVirtualEngines(2048, 4) }},
		{"gllm", func() sched.Scheduler { return sched.NewDefaultThrottle() }},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var e2e float64
			for i := 0; i < b.N; i++ {
				res, err := engine.RunPipeline(engine.Config{
					Model:     model.Qwen25_14B,
					GPU:       gpu.L20,
					Topo:      network.IntraNode(4, network.PCIe),
					MemUtil:   0.9,
					Scheduler: tc.mk(),
					Runtime:   engine.VLLMRuntime,
				}, items)
				if err != nil {
					b.Fatal(err)
				}
				e2e = res.Report.E2E.Mean
			}
			b.ReportMetric(e2e, "E2E-s")
		})
	}
}

// Command gllm-sim runs one virtual-time serving simulation and prints the
// paper's metrics (TTFT, TPOT, E2EL, throughput, preemptions, bubbles).
//
// Examples:
//
//	gllm-sim -model Qwen2.5-32B -sched gllm -rate 4
//	gllm-sim -model Qwen2.5-14B -sched sarathi -runtime vllm -rate 8 -dataset azure
//	gllm-sim -model Llama3.1-100B -gpu A800-80GB -nodes 4 -gpus-per-node 1 -rate 0.5
//	gllm-sim -parallelism tp -sched sarathi -runtime sglang -rate 2
//	gllm-sim -sched gllm -rate 4 -trace-out trace.json -iters-csv iters.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gllm/internal/core"
	"gllm/internal/engine"
	"gllm/internal/gpu"
	"gllm/internal/invariant"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/sched"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

func main() {
	var (
		modelName   = flag.String("model", "Qwen2.5-32B", "model: Qwen2.5-14B, Qwen2.5-32B, Llama3.1-100B, Mixtral-8x7B")
		gpuName     = flag.String("gpu", "L20-48GB", "GPU: L20-48GB, A100-40GB, A800-80GB")
		nodes       = flag.Int("nodes", 1, "number of nodes (cross-node uses the 73.28 Gbps simulated net)")
		gpusPerNode = flag.Int("gpus-per-node", 4, "GPUs per node (PCIe inside a node)")
		parallelism = flag.String("parallelism", "pp", "pp (pipeline), tp (tensor) or tknp (token parallel; tokenpar is an alias)")
		rootTP      = flag.Int("root-tp", 1, "token-parallel root group width: the first N ranks hold the weights (tknp only)")
		schedName   = flag.String("sched", "gllm", "scheduler: gllm, sarathi, vllm-ve, td-pipe, orca, batch-level, gllm-no-wt, gllm-no-ut, gllm-ck")
		runtimeName = flag.String("runtime", "", "runtime model: gllm, vllm, sglang (default: matches scheduler)")
		datasetName = flag.String("dataset", "sharegpt", "workload: sharegpt or azure")
		tracePath   = flag.String("trace-file", "", "replay a JSON trace instead of synthesizing (see workload.LoadJSON)")
		rate        = flag.Float64("rate", 4, "request rate (req/s)")
		window      = flag.Duration("window", 128*time.Second, "request send window")
		seed        = flag.Uint64("seed", 20250704, "workload seed")
		memUtil     = flag.Float64("gpu-memory-util", 0.9, "GPU memory utilization fraction")
		budget      = flag.Int("token-budget", 2048, "Sarathi token budget")
		iterT       = flag.Int("iterp", 8, "gLLM #T")
		maxP        = flag.Int("maxp", 2048, "gLLM #MaxP")
		minP        = flag.Int("minp", 32, "gLLM #MinP")
		kvThresh    = flag.Float64("kvthresh", 0.05, "gLLM KV_thresh")
		itersCSV    = flag.String("iters-csv", "", "write per-iteration token counts as CSV")
		utilCSV     = flag.String("util-csv", "", "write per-stage utilization samples as CSV")
		sloTTFT     = flag.Duration("slo-ttft", 0, "report SLO attainment with this TTFT limit")
		sloTPOT     = flag.Duration("slo-tpot", 0, "TPOT limit for -slo-ttft")
		enableCPP   = flag.Bool("enable-cpp", false, "pipeline a request's prompt chunks across micro-batches")
		prefixCache = flag.Bool("enable-prefix-cache", false, "reuse KV across requests sharing a prefix group")
		costAware   = flag.Bool("cost-aware", false, "attention-aware decode balancing (gLLM scheduler only)")
		convs       = flag.Bool("conversations", false, "synthesize multi-turn conversations instead of independent requests")
		checkInv    = flag.Bool("check-invariants", false, "audit every scheduling cycle against the invariant catalogue (see internal/invariant)")
		traceOut    = flag.String("trace-out", "", "write the obs span recorder as Chrome trace-event JSON (per-stage exec/xfer/prep lanes) and print per-stage bubble accounting")
	)
	flag.Parse()
	opts := simOptions{
		enableCPP:   *enableCPP,
		prefixCache: *prefixCache,
		costAware:   *costAware,
		convs:       *convs,
		checkInv:    *checkInv,
		traceOut:    *traceOut,
	}
	if err := run(*modelName, *gpuName, *nodes, *gpusPerNode, *parallelism, *rootTP, *schedName,
		*runtimeName, *datasetName, *tracePath, *rate, *window, *seed, *memUtil, *budget,
		core.Params{IterT: *iterT, MaxP: *maxP, MinP: *minP, KVThresh: *kvThresh},
		*itersCSV, *utilCSV, *sloTTFT, *sloTPOT, opts); err != nil {
		fmt.Fprintln(os.Stderr, "gllm-sim:", err)
		os.Exit(1)
	}
}

// simOptions carries the optional feature toggles.
type simOptions struct {
	enableCPP   bool
	prefixCache bool
	costAware   bool
	convs       bool
	checkInv    bool
	traceOut    string
}

func run(modelName, gpuName string, nodes, gpusPerNode int, parallelism string, rootTP int,
	schedName, runtimeName, datasetName, tracePath string, rate float64, window time.Duration,
	seed uint64, memUtil float64, budget int, params core.Params,
	itersCSV, utilCSV string, sloTTFT, sloTPOT time.Duration,
	opts simOptions) error {

	if parallelism == "tokenpar" {
		parallelism = "tknp"
	}
	m, err := model.ByName(modelName)
	if err != nil {
		return err
	}
	g, err := gpu.ByName(gpuName)
	if err != nil {
		return err
	}
	var topo network.Topology
	if nodes > 1 {
		topo = network.CrossNode(nodes, gpusPerNode, network.PCIe, network.SimulatedNet)
	} else {
		topo = network.IntraNode(gpusPerNode, network.PCIe)
	}
	s, err := sched.ByName(schedName, budget, params)
	if err != nil {
		return err
	}
	if opts.costAware {
		if _, ok := s.(*sched.Throttle); !ok {
			return fmt.Errorf("-cost-aware requires a gLLM scheduler, got %q", schedName)
		}
		s = sched.NewCostAwareThrottle(params, m)
	}
	if runtimeName == "" {
		if schedName == "sarathi" {
			runtimeName = "vllm"
		} else {
			runtimeName = "gllm"
		}
	}
	var rt engine.RuntimeModel
	switch runtimeName {
	case "gllm":
		rt = engine.GLLMRuntime
	case "vllm":
		rt = engine.VLLMRuntime
	case "sglang":
		rt = engine.SGLangRuntime
	default:
		return fmt.Errorf("unknown runtime %q", runtimeName)
	}

	var items []workload.Item
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return err
		}
		items, err = workload.LoadJSON(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		ds, err := workload.ByName(datasetName)
		if err != nil {
			return err
		}
		if opts.convs {
			items = workload.Conversations(stats.NewRNG(seed), workload.DefaultConversationSpec(ds, rate, window))
		} else {
			items = workload.Poisson(stats.NewRNG(seed), ds, rate, window)
		}
	}
	fmt.Printf("workload: %d requests, %d total tokens\n", len(items), workload.TotalTokens(items))

	cfg := engine.Config{
		Model:             m,
		GPU:               g,
		Topo:              topo,
		MemUtil:           memUtil,
		Scheduler:         s,
		Runtime:           rt,
		EnableCPP:         opts.enableCPP,
		EnablePrefixCache: opts.prefixCache,
	}
	if utilCSV != "" {
		cfg.UtilSampleEvery = 250 * time.Millisecond
	}
	var col *invariant.Collector
	if opts.checkInv {
		col = invariant.NewCollector(invariant.Options{})
		cfg.Observer = col.Observer
	}
	var rec *obs.Recorder
	if opts.traceOut != "" {
		stages := topo.GPUs()
		if parallelism == "tp" {
			stages = 1 // the TP engine is one fused device
		}
		// tknp keeps one lane per rank: roots and KV peers diverge.
		rec = obs.NewRecorder(stages, 0)
		cfg.Spans = rec
	}

	var res *engine.Result
	switch parallelism {
	case "pp":
		res, err = engine.RunPipeline(cfg, items)
	case "tp":
		res, err = engine.RunTensor(cfg, items)
	case "tknp":
		res, err = engine.RunTokenParallel(engine.TokenParallelConfig{Config: cfg, RootTP: rootTP}, items)
	default:
		return fmt.Errorf("unknown parallelism %q", parallelism)
	}
	if err != nil {
		return err
	}

	fmt.Printf("deployment: %s on %s (%s, %s parallelism, %s scheduler, %s runtime)\n",
		m.Name, topo.Name, g.Name, parallelism, res.SchedulerName, res.RuntimeName)
	fmt.Printf("KV capacity: %d tokens; injections: %d; preemptions: %d; bubble fraction: %.3f\n",
		res.KVCapacityTokens, res.Injections, res.Preemptions, res.BubbleFraction)
	if parallelism == "tknp" {
		fmt.Printf("token-parallel: root TP %d, scatter/gather volume %.2f GB\n",
			rootTP, float64(res.TknpCommBytes)/1e9)
	}
	fmt.Print(res.Report.String())
	if col != nil {
		// A violation aborts the run through the engine's error path, so
		// reaching this point means every audited cycle was clean.
		fmt.Printf("invariants: ok (%d audited cycles)\n", col.Cycles())
	}
	if sloTTFT > 0 {
		att := res.Collector.SLOAttainment(sloTTFT, sloTPOT)
		fmt.Printf("  SLO attainment (ttft<=%v, tpot<=%v): %.1f%%\n", sloTTFT, sloTPOT, att*100)
	}

	if rec != nil {
		f, err := os.Create(opts.traceOut)
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
		acc := rec.AccountOver(res.Makespan)
		fmt.Printf("trace-out: %s (%d spans, %d dropped)\n", opts.traceOut, acc.Spans, acc.Dropped)
		fmt.Print(acc.String())
	}
	if itersCSV != "" {
		f, err := os.Create(itersCSV)
		if err != nil {
			return err
		}
		fmt.Fprintln(f, "seconds,prefill,decode")
		for _, it := range res.Iterations {
			fmt.Fprintf(f, "%.6f,%d,%d\n", it.Time.Seconds(), it.Prefill, it.Decode)
		}
		f.Close()
		fmt.Printf("iteration CSV: %s (%d rows)\n", itersCSV, len(res.Iterations))
	}
	if utilCSV != "" && len(res.StageUtil) > 0 {
		f, err := os.Create(utilCSV)
		if err != nil {
			return err
		}
		fmt.Fprint(f, "seconds")
		for i := range res.StageUtil {
			fmt.Fprintf(f, ",stage%d", i)
		}
		fmt.Fprintln(f)
		for row := 0; row < len(res.StageUtil[0].Points); row++ {
			fmt.Fprintf(f, "%.3f", res.StageUtil[0].Points[row].T.Seconds())
			for _, ts := range res.StageUtil {
				v := 0.0
				if row < len(ts.Points) {
					v = ts.Points[row].V
				}
				fmt.Fprintf(f, ",%.4f", v)
			}
			fmt.Fprintln(f)
		}
		f.Close()
		fmt.Printf("utilization CSV: %s\n", utilCSV)
	}
	return nil
}

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
	"bufio"
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

// simOptions is the parsed command line.
type simOptions struct {
	modelName   string
	gpuName     string
	nodes       int
	gpusPerNode int
	parallelism string
	rootTP      int
	schedName   string
	runtimeName string
	datasetName string
	tracePath   string
	rate        float64
	window      time.Duration
	seed        uint64
	memUtil     float64
	budget      int
	params      core.Params
	itersCSV    string
	sloTTFT     time.Duration
	sloTPOT     time.Duration
	enableCPP   bool
	prefixCache bool
	convs       bool
	checkInv    bool
	traceOut    string
}

func main() {
	var o simOptions
	flag.StringVar(&o.modelName, "model", "Qwen2.5-32B", "model: Qwen2.5-14B, Qwen2.5-32B, Llama3.1-100B, Mixtral-8x7B")
	flag.StringVar(&o.gpuName, "gpu", "L20-48GB", "GPU: L20-48GB, A100-40GB, A800-80GB")
	flag.IntVar(&o.nodes, "nodes", 1, "number of nodes (cross-node uses the 73.28 Gbps simulated net)")
	flag.IntVar(&o.gpusPerNode, "gpus-per-node", 4, "GPUs per node (PCIe inside a node)")
	flag.StringVar(&o.parallelism, "parallelism", "pp", "pp (pipeline), tp (tensor) or tknp (token parallel)")
	flag.IntVar(&o.rootTP, "root-tp", 1, "token-parallel root group width: the first N ranks hold the weights (tknp only)")
	flag.StringVar(&o.schedName, "sched", "gllm", "scheduler: gllm, sarathi, vllm-ve, td-pipe, orca, batch-level, gllm-no-wt, gllm-no-ut, gllm-ck")
	flag.StringVar(&o.runtimeName, "runtime", "", "runtime model: gllm, vllm, sglang (default: matches scheduler)")
	flag.StringVar(&o.datasetName, "dataset", "sharegpt", "workload: sharegpt or azure")
	flag.StringVar(&o.tracePath, "trace-file", "", "replay a JSON trace instead of synthesizing (see workload.LoadJSON)")
	flag.Float64Var(&o.rate, "rate", 4, "request rate (req/s)")
	flag.DurationVar(&o.window, "window", 128*time.Second, "request send window")
	flag.Uint64Var(&o.seed, "seed", 20250704, "workload seed")
	flag.Float64Var(&o.memUtil, "gpu-memory-util", 0.9, "GPU memory utilization fraction")
	flag.IntVar(&o.budget, "token-budget", 2048, "Sarathi token budget")
	flag.IntVar(&o.params.IterT, "iterp", 8, "gLLM #T")
	flag.IntVar(&o.params.MaxP, "maxp", 2048, "gLLM #MaxP")
	flag.IntVar(&o.params.MinP, "minp", 32, "gLLM #MinP")
	flag.Float64Var(&o.params.KVThresh, "kvthresh", 0.05, "gLLM KV_thresh")
	flag.StringVar(&o.itersCSV, "iters-csv", "", "write per-iteration token counts as CSV")
	flag.DurationVar(&o.sloTTFT, "slo-ttft", 0, "report SLO attainment with this TTFT limit (set both or neither)")
	flag.DurationVar(&o.sloTPOT, "slo-tpot", 0, "TPOT limit for -slo-ttft (set both or neither)")
	flag.BoolVar(&o.enableCPP, "enable-cpp", false, "pipeline a request's prompt chunks across micro-batches")
	flag.BoolVar(&o.prefixCache, "enable-prefix-cache", false, "reuse KV across requests sharing a prefix group")
	flag.BoolVar(&o.convs, "conversations", false, "synthesize multi-turn conversations instead of independent requests")
	flag.BoolVar(&o.checkInv, "check-invariants", false, "audit every scheduling cycle against the invariant catalogue (see internal/invariant)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the obs span recorder as Chrome trace-event JSON (per-stage exec/xfer/prep lanes) and print per-stage bubble accounting")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "gllm-sim:", err)
		os.Exit(1)
	}
}

func run(o simOptions) error {
	// Written so that NaN fails; an explicit 0 is out of range too, not
	// the engine's unset default.
	if !(o.memUtil > 0 && o.memUtil <= 1) {
		return fmt.Errorf("-gpu-memory-util: MemUtil %g out of (0,1]", o.memUtil)
	}
	// Both SLO limits or neither: SLOAttainment reads a 0 TPOT as a limit.
	if o.sloTTFT < 0 || o.sloTPOT < 0 || (o.sloTTFT > 0) != (o.sloTPOT > 0) {
		return fmt.Errorf("-slo-ttft %v -slo-tpot %v: want both limits positive, or neither", o.sloTTFT, o.sloTPOT)
	}
	// -root-tp 0 is out of range too, not the engine's unset default.
	if o.nodes < 1 || o.gpusPerNode < 1 || o.rootTP < 1 {
		return fmt.Errorf("-nodes %d -gpus-per-node %d -root-tp %d: want at least 1 of each", o.nodes, o.gpusPerNode, o.rootTP)
	}
	m, err := model.ByName(o.modelName)
	if err != nil {
		return err
	}
	g, err := gpu.ByName(o.gpuName)
	if err != nil {
		return err
	}
	var topo network.Topology
	if o.nodes > 1 {
		topo = network.CrossNode(o.nodes, o.gpusPerNode, network.PCIe, network.SimulatedNet)
	} else {
		topo = network.IntraNode(o.gpusPerNode, network.PCIe)
	}
	s, err := sched.ByName(o.schedName, o.budget, o.params)
	if err != nil {
		return err
	}
	if o.runtimeName == "" {
		if o.schedName == "sarathi" {
			o.runtimeName = "vllm"
		} else {
			o.runtimeName = "gllm"
		}
	}
	var rt engine.RuntimeModel
	switch o.runtimeName {
	case "gllm":
		rt = engine.GLLMRuntime
	case "vllm":
		rt = engine.VLLMRuntime
	case "sglang":
		rt = engine.SGLangRuntime
	default:
		return fmt.Errorf("unknown runtime %q", o.runtimeName)
	}

	var items []workload.Item
	if o.tracePath != "" {
		f, err := os.Open(o.tracePath)
		if err != nil {
			return err
		}
		items, err = workload.LoadJSON(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		if err := workload.CheckRate(o.rate, o.window); err != nil {
			return fmt.Errorf("-rate %g -window %v: %w", o.rate, o.window, err)
		}
		ds, err := workload.ByName(o.datasetName)
		if err != nil {
			return err
		}
		if o.convs {
			items = workload.Conversations(stats.NewRNG(o.seed), workload.DefaultConversationSpec(ds, o.rate, o.window))
		} else {
			items = workload.Poisson(stats.NewRNG(o.seed), ds, o.rate, o.window)
		}
	}
	fmt.Printf("workload: %d requests, %d total tokens\n", len(items), workload.TotalTokens(items))

	cfg := engine.Config{
		Model:             m,
		GPU:               g,
		Topo:              topo,
		MemUtil:           o.memUtil,
		Scheduler:         s,
		Runtime:           rt,
		EnableCPP:         o.enableCPP,
		EnablePrefixCache: o.prefixCache,
	}
	var col *invariant.Collector
	if o.checkInv {
		col = invariant.NewCollector()
		cfg.Observer = col.Observer
	}
	var log engine.BatchLog
	if o.itersCSV != "" {
		cfg.Observer = log.Observer(cfg.Observer)
	}
	var rec *obs.Recorder
	if o.traceOut != "" {
		stages := topo.GPUs()
		if o.parallelism == "tp" {
			stages = 1 // the TP engine is one fused device
		}
		// tknp keeps one lane per rank: roots and KV peers diverge.
		rec = obs.NewRecorder(stages, 0)
		cfg.Spans = rec
	}

	var res *engine.Result
	switch o.parallelism {
	case "pp":
		res, err = engine.RunPipeline(cfg, items)
	case "tp":
		res, err = engine.RunTensor(cfg, items)
	case "tknp":
		res, err = engine.RunTokenParallel(engine.TokenParallelConfig{Config: cfg, RootTP: o.rootTP}, items)
	default:
		return fmt.Errorf("unknown parallelism %q", o.parallelism)
	}
	if err != nil {
		return err
	}

	fmt.Printf("deployment: %s on %s (%s, %s parallelism, %s scheduler, %s runtime)\n",
		m.Name, topo.Name, g.Name, o.parallelism, res.SchedulerName, res.RuntimeName)
	fmt.Printf("KV capacity: %d tokens; injections: %d; preemptions: %d; bubble fraction: %.3f\n",
		res.KVCapacityTokens, res.Injections, res.Preemptions, res.BubbleFraction)
	if o.parallelism == "tknp" {
		fmt.Printf("token-parallel: root TP %d, scatter/gather volume %.2f GB\n",
			o.rootTP, float64(res.TknpCommBytes)/1e9)
	}
	fmt.Print(res.Report.String())
	if col != nil {
		// A violation aborts the run through the engine's error path, so
		// reaching this point means every audited cycle was clean.
		fmt.Printf("invariants: ok (%d audited cycles)\n", col.Cycles())
	}
	if o.sloTTFT > 0 {
		att := res.Collector.SLOAttainment(o.sloTTFT, o.sloTPOT)
		fmt.Printf("  SLO attainment (ttft<=%v, tpot<=%v): %.1f%%\n", o.sloTTFT, o.sloTPOT, att*100)
	}

	if rec != nil {
		if err := obs.WriteChromeFile(o.traceOut, rec, 0); err != nil {
			return err
		}
		acc := obs.Account(res.StageBusy, res.StageTransfer, res.PrepTime, res.Makespan)
		acc.Spans, acc.Dropped = rec.Total(), rec.Dropped()
		fmt.Printf("trace-out: %s (%d spans, %d dropped)\n", o.traceOut, acc.Spans, acc.Dropped)
		fmt.Print(acc.String())
	}
	if o.itersCSV != "" {
		if err := writeItersCSV(o.itersCSV, log.Batches); err != nil {
			return err
		}
		fmt.Printf("iteration CSV: %s (%d rows)\n", o.itersCSV, len(log.Batches))
	}
	return nil
}

// writeItersCSV writes one row per injected micro-batch. A bufio.Writer
// keeps the first write error, so checking Flush and Close checks them all.
func writeItersCSV(path string, batches []engine.ScheduledBatch) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "seconds,prefill,decode")
	for _, b := range batches {
		fmt.Fprintf(w, "%.6f,%d,%d\n", b.Time.Seconds(), b.Prefill, b.Decode)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

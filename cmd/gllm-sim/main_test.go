package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gllm/internal/core"
	"gllm/internal/obs"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// opts is a short pipeline run on the standard test deployment, adjusted by
// mutate.
func opts(mutate func(*simOptions)) simOptions {
	o := simOptions{
		modelName: "Qwen2.5-14B", gpuName: "L20-48GB", nodes: 1, gpusPerNode: 4,
		parallelism: "pp", rootTP: 1, schedName: "gllm", datasetName: "sharegpt",
		rate: 1, window: 5 * time.Second, seed: 7, memUtil: 0.9, budget: 2048,
		params: core.DefaultParams(),
	}
	if mutate != nil {
		mutate(&o)
	}
	return o
}

// readTrace decodes the Chrome trace run wrote to path.
func readTrace(t *testing.T, path string) *obs.DecodedTrace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec, err := obs.ReadChrome(f)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

func TestRunSmoke(t *testing.T) {
	iters := filepath.Join(t.TempDir(), "iters.csv")
	err := run(opts(func(o *simOptions) {
		o.rate, o.window = 2, 10*time.Second
		o.itersCSV = iters
		o.sloTTFT, o.sloTPOT = 2*time.Second, 100*time.Millisecond
	}))
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(iters)
	if err != nil {
		t.Fatalf("%s missing: %v", iters, err)
	}
	if st.Size() == 0 {
		t.Fatalf("%s empty", iters)
	}
}

func TestRunTraceOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "spans.json")
	if err := run(opts(func(o *simOptions) { o.rate, o.traceOut = 2, out })); err != nil {
		t.Fatal(err)
	}
	dec := readTrace(t, out)
	if dec.Stages != 4 {
		t.Fatalf("decoded stages = %d", dec.Stages)
	}
	if len(dec.Spans) == 0 {
		t.Fatal("no spans in trace-out file")
	}
}

func TestRunTensorParallel(t *testing.T) {
	// The fused TP device is one lane in a span trace, whatever the degree.
	out := filepath.Join(t.TempDir(), "spans.json")
	err := run(opts(func(o *simOptions) {
		o.parallelism, o.schedName, o.runtimeName, o.traceOut = "tp", "sarathi", "sglang", out
	}))
	if err != nil {
		t.Fatal(err)
	}
	if dec := readTrace(t, out); dec.Stages != 1 || len(dec.Spans) == 0 {
		t.Fatalf("decoded %d spans over %d stages, want one lane", len(dec.Spans), dec.Stages)
	}
}

func TestRunTokenParallel(t *testing.T) {
	// A span trace gets one lane per rank.
	out := filepath.Join(t.TempDir(), "spans.json")
	tknp := func(o *simOptions) {
		o.parallelism, o.rootTP, o.schedName, o.runtimeName, o.traceOut = "tknp", 2, "sarathi", "gllm", out
	}
	if err := run(opts(tknp)); err != nil {
		t.Fatal(err)
	}
	if dec := readTrace(t, out); dec.Stages != 4 {
		t.Fatalf("decoded stages = %d, want one lane per rank", dec.Stages)
	}
	// Root TP wider than the deployment must be rejected.
	if err := run(opts(func(o *simOptions) { tknp(o); o.rootTP, o.traceOut = 5, "" })); err == nil {
		t.Fatal("root TP 5 on 4 GPUs accepted")
	}
}

func TestRunFeatureToggles(t *testing.T) {
	err := run(opts(func(o *simOptions) {
		o.window = 8 * time.Second
		o.enableCPP, o.prefixCache, o.convs = true, true, true
	}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceReplay(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	items := workload.Poisson(stats.NewRNG(3), workload.ShareGPT, 2, 5*time.Second)
	if err := workload.WriteJSON(f, items); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// -trace-file replaces the synthesized workload: no dataset, rate or window.
	err = run(opts(func(o *simOptions) {
		o.tracePath, o.datasetName, o.rate, o.window, o.seed = tracePath, "", 0, 0, 0
	}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := map[string]func(*simOptions){
		"bad model":           func(o *simOptions) { o.modelName = "GPT-9" },
		"bad gpu":             func(o *simOptions) { o.gpuName = "H900" },
		"bad sched":           func(o *simOptions) { o.schedName = "fcfs" },
		"bad runtime":         func(o *simOptions) { o.runtimeName = "rust" },
		"bad dataset":         func(o *simOptions) { o.datasetName = "pile" },
		"bad parallelism":     func(o *simOptions) { o.parallelism = "dp" },
		"retired alias":       func(o *simOptions) { o.parallelism = "tokenpar" },
		"missing trace file":  func(o *simOptions) { o.tracePath = "/nonexistent.json" },
		"memory util above 1": func(o *simOptions) { o.memUtil = 2 },
		// One SLO limit alone used to report 0 %: the other read as 0.
		"slo-ttft without slo-tpot": func(o *simOptions) { o.sloTTFT = 100 * time.Second },
		"slo-tpot without slo-ttft": func(o *simOptions) { o.sloTPOT = time.Second },
		"slo-ttft -1":               func(o *simOptions) { o.sloTTFT, o.sloTPOT = -1, time.Second },
		"slo-tpot -1":               func(o *simOptions) { o.sloTTFT, o.sloTPOT = time.Second, -1 },
	}
	// Float flags out of range, NaN included (it used to pass every check:
	// -gpu-memory-util NaN sized a 70 TB cache, -rate NaN never ended the
	// arrival window). A KV_thresh of 0 is valid.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0} {
		cases[fmt.Sprintf("rate %g", v)] = func(o *simOptions) { o.rate = v }
		cases[fmt.Sprintf("memory util %g", v)] = func(o *simOptions) { o.memUtil = v }
		if v != 0 {
			cases[fmt.Sprintf("kvthresh %g", v)] = func(o *simOptions) { o.params.KVThresh = v }
		}
	}
	// Sizes and budgets below 1, an empty window, and a trace too long to
	// generate (they used to panic in the topology, the scheduler and the
	// arrival process, or generate for minutes).
	for _, v := range []int{-1, 0} {
		cases[fmt.Sprintf("nodes %d", v)] = func(o *simOptions) { o.nodes = v }
		cases[fmt.Sprintf("gpus-per-node %d", v)] = func(o *simOptions) { o.gpusPerNode = v }
		cases[fmt.Sprintf("window %d", v)] = func(o *simOptions) { o.window = time.Duration(v) }
		cases[fmt.Sprintf("iterp %d", v)] = func(o *simOptions) { o.params.IterT = v }
		cases[fmt.Sprintf("maxp %d", v)] = func(o *simOptions) { o.params.MaxP = v }
		cases[fmt.Sprintf("minp %d", v)] = func(o *simOptions) { o.params.MinP = v }
		// Root TP 0 used to run as root TP 1.
		cases[fmt.Sprintf("root-tp %d", v)] = func(o *simOptions) { o.parallelism, o.schedName, o.rootTP = "tknp", "sarathi", v }
		for _, s := range []string{"sarathi", "gllm-ck", "vllm-ve", "td-pipe"} {
			cases[fmt.Sprintf("%s token-budget %d", s, v)] = func(o *simOptions) { o.schedName, o.budget = s, v }
		}
	}
	cases["rate 1e308"] = func(o *simOptions) { o.rate = 1e308 }
	// Every write to a full device fails, which must fail the run.
	if _, err := os.Stat("/dev/full"); err == nil {
		cases["iters-csv unwritable"] = func(o *simOptions) { o.itersCSV = "/dev/full" }
	}
	for name, mutate := range cases {
		if err := runWithin(t, name, opts(func(o *simOptions) { o.window = time.Second; mutate(o) })); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	// The one numeric flag no case above rejects, -seed, runs or fails with
	// one line at 0.
	runWithin(t, "seed 0", opts(func(o *simOptions) { o.window = time.Second; o.seed = 0 }))
}

// runWithin runs o and returns its error, which must fit on one line (main
// prints it as the one line before exit 1). It fails the test if the run
// is still going after a minute: a flag value must never make gllm-sim hang.
func runWithin(t *testing.T, name string, o simOptions) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- run(o) }()
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

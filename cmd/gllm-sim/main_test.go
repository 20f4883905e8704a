package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"gllm/internal/core"
	"gllm/internal/obs"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

func params() core.Params { return core.DefaultParams() }

func TestRunSmoke(t *testing.T) {
	dir := t.TempDir()
	iters := filepath.Join(dir, "iters.csv")
	util := filepath.Join(dir, "util.csv")
	err := run("Qwen2.5-14B", "L20-48GB", 1, 4, "pp", 1, "gllm", "", "sharegpt", "",
		2, 10*time.Second, 7, 0.9, 2048, params(),
		iters, util, 2*time.Second, 100*time.Millisecond, simOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{iters, util} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatalf("%s missing: %v", f, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s empty", f)
		}
	}
}

func TestRunTraceOut(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "spans.json")
	err := run("Qwen2.5-14B", "L20-48GB", 1, 4, "pp", 1, "gllm", "", "sharegpt", "",
		2, 5*time.Second, 7, 0.9, 2048, params(),
		"", "", 0, 0, simOptions{traceOut: out})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec, err := obs.ReadChrome(f)
	if err != nil {
		t.Fatal(err)
	}
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
	err := run("Qwen2.5-14B", "L20-48GB", 1, 4, "tp", 1, "sarathi", "sglang", "sharegpt", "",
		1, 5*time.Second, 7, 0.9, 2048, params(), "", "", 0, 0, simOptions{traceOut: out})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec, err := obs.ReadChrome(f)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stages != 1 || len(dec.Spans) == 0 {
		t.Fatalf("decoded %d spans over %d stages, want one lane", len(dec.Spans), dec.Stages)
	}
}

func TestRunTokenParallel(t *testing.T) {
	// "tokenpar" aliases "tknp"; a span trace gets one lane per rank.
	dir := t.TempDir()
	out := filepath.Join(dir, "spans.json")
	err := run("Qwen2.5-14B", "L20-48GB", 1, 4, "tokenpar", 2, "sarathi", "gllm", "sharegpt", "",
		1, 5*time.Second, 7, 0.9, 2048, params(), "", "", 0, 0, simOptions{traceOut: out})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec, err := obs.ReadChrome(f)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stages != 4 {
		t.Fatalf("decoded stages = %d, want one lane per rank", dec.Stages)
	}
	// Root TP wider than the deployment must be rejected.
	if err := run("Qwen2.5-14B", "L20-48GB", 1, 4, "tknp", 5, "sarathi", "gllm", "sharegpt", "",
		1, time.Second, 7, 0.9, 2048, params(), "", "", 0, 0, simOptions{}); err == nil {
		t.Fatal("root TP 5 on 4 GPUs accepted")
	}
}

func TestRunFeatureToggles(t *testing.T) {
	err := run("Qwen2.5-14B", "L20-48GB", 1, 4, "pp", 1, "gllm", "", "sharegpt", "",
		1, 8*time.Second, 7, 0.9, 2048, params(), "", "", 0, 0,
		simOptions{enableCPP: true, prefixCache: true, costAware: true, convs: true})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceReplay(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	items := workload.Poisson(stats.NewRNG(3), workload.ShareGPT, 2, 5*time.Second)
	if err := workload.WriteJSON(f, items); err != nil {
		t.Fatal(err)
	}
	f.Close()
	err = run("Qwen2.5-14B", "L20-48GB", 1, 4, "pp", 1, "gllm", "", "", tracePath,
		0, 0, 0, 0.9, 2048, params(), "", "", 0, 0, simOptions{})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		fn   func() error
	}{
		{"bad model", func() error {
			return run("GPT-9", "L20-48GB", 1, 4, "pp", 1, "gllm", "", "sharegpt", "",
				1, time.Second, 7, 0.9, 2048, params(), "", "", 0, 0, simOptions{})
		}},
		{"bad gpu", func() error {
			return run("Qwen2.5-14B", "H900", 1, 4, "pp", 1, "gllm", "", "sharegpt", "",
				1, time.Second, 7, 0.9, 2048, params(), "", "", 0, 0, simOptions{})
		}},
		{"bad sched", func() error {
			return run("Qwen2.5-14B", "L20-48GB", 1, 4, "pp", 1, "fcfs", "", "sharegpt", "",
				1, time.Second, 7, 0.9, 2048, params(), "", "", 0, 0, simOptions{})
		}},
		{"bad runtime", func() error {
			return run("Qwen2.5-14B", "L20-48GB", 1, 4, "pp", 1, "gllm", "rust", "sharegpt", "",
				1, time.Second, 7, 0.9, 2048, params(), "", "", 0, 0, simOptions{})
		}},
		{"bad dataset", func() error {
			return run("Qwen2.5-14B", "L20-48GB", 1, 4, "pp", 1, "gllm", "", "pile", "",
				1, time.Second, 7, 0.9, 2048, params(), "", "", 0, 0, simOptions{})
		}},
		{"bad parallelism", func() error {
			return run("Qwen2.5-14B", "L20-48GB", 1, 4, "dp", 1, "gllm", "", "sharegpt", "",
				1, time.Second, 7, 0.9, 2048, params(), "", "", 0, 0, simOptions{})
		}},
		{"cost-aware on sarathi", func() error {
			return run("Qwen2.5-14B", "L20-48GB", 1, 4, "pp", 1, "sarathi", "", "sharegpt", "",
				1, time.Second, 7, 0.9, 2048, params(), "", "", 0, 0, simOptions{costAware: true})
		}},
		{"missing trace file", func() error {
			return run("Qwen2.5-14B", "L20-48GB", 1, 4, "pp", 1, "gllm", "", "", "/nonexistent.json",
				1, time.Second, 7, 0.9, 2048, params(), "", "", 0, 0, simOptions{})
		}},
	}
	for _, tc := range cases {
		if err := tc.fn(); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

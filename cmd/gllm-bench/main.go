// Command gllm-bench is the open-loop benchmark client (the paper's
// benchmark_serving.py): it replays a synthetic or recorded trace against
// an OpenAI-compatible server and reports TTFT/TPOT/E2EL/throughput and
// optional goodput (SLO attainment).
//
//	gllm-bench -port 8000 -dataset sharegpt -request-rate 4 -duration 30s \
//	           -goodput "ttft:2000 tpot:100"
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gllm/internal/client"
	"gllm/internal/metrics"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// benchOptions is the parsed command line.
type benchOptions struct {
	host        string
	port        int
	modelName   string
	datasetName string
	azureCSV    string
	rate        float64
	duration    time.Duration
	seed        uint64
	goodput     string
	parallel    int
	histOut     string
	promptMode  string
}

func main() {
	var o benchOptions
	flag.StringVar(&o.host, "host", "127.0.0.1", "server host")
	flag.IntVar(&o.port, "port", 8000, "server port")
	flag.StringVar(&o.modelName, "model", "Qwen2.5-32B", "model name")
	flag.StringVar(&o.datasetName, "dataset-name", "sharegpt", "sharegpt or azure (paper flag --dataset-name)")
	flag.StringVar(&o.azureCSV, "splitwise-path", "", "Azure LLM inference CSV trace to replay instead of synthesizing (paper flag)")
	flag.Float64Var(&o.rate, "request-rate", 4, "request rate (req/s)")
	flag.DurationVar(&o.duration, "duration", 128*time.Second, "request send window (paper: 128 s)")
	flag.Uint64Var(&o.seed, "seed", 20250704, "workload seed")
	flag.StringVar(&o.goodput, "goodput", "", `SLO spec like "ttft:2000 tpot:100" (milliseconds)`)
	flag.IntVar(&o.parallel, "parallel", runtime.GOMAXPROCS(0),
		"cap on concurrent in-flight requests (0 = unlimited; arrivals stay open-loop)")
	flag.StringVar(&o.histOut, "hist-out", "",
		"write client-side TTFT/TPOT/E2EL/queue-delay histograms as CSV (metric,kind,value rows)")
	flag.StringVar(&o.promptMode, "prompt-mode", "synthetic",
		"prompt rendering: synthetic (prompt_len only), real (full prompt string), auto (real below 4096 tokens)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "gllm-bench:", err)
		os.Exit(1)
	}
}

// loadWorkload returns the trace to replay: the recorded Azure CSV when
// -splitwise-path names one, else a seeded Poisson synthesis.
func loadWorkload(o benchOptions) ([]workload.Item, error) {
	if o.azureCSV != "" {
		f, err := os.Open(o.azureCSV)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return workload.LoadAzureCSV(f)
	}
	ds, err := workload.ByName(o.datasetName)
	if err != nil {
		return nil, err
	}
	return workload.Poisson(stats.NewRNG(o.seed), ds, o.rate, o.duration), nil
}

func run(o benchOptions) error {
	var mode client.PromptMode
	switch o.promptMode {
	case "synthetic":
		mode = client.PromptSynthetic
	case "real":
		mode = client.PromptReal
	case "auto":
		mode = client.PromptAuto
	default:
		return fmt.Errorf("unknown -prompt-mode %q (synthetic, real, auto)", o.promptMode)
	}
	items, err := loadWorkload(o)
	if err != nil {
		return err
	}
	if len(items) == 0 {
		return fmt.Errorf("empty workload")
	}
	fmt.Printf("gllm-bench: %d requests, %d tokens\n", len(items), workload.TotalTokens(items))

	res, err := client.Run(context.Background(), client.Options{
		BaseURL:     fmt.Sprintf("http://%s:%d", o.host, o.port),
		Model:       o.modelName,
		Items:       items,
		PromptMode:  mode,
		MaxInFlight: o.parallel,
	})
	if err != nil {
		return err
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "  error:", e)
	}
	fmt.Print(res.Report.String())
	if res.Rejected > 0 {
		// Server-side admission control (HTTP 429): shed load, not failures.
		fmt.Printf("  rejected=%d (server backpressure)\n", res.Rejected)
	}

	if o.histOut != "" {
		f, err := os.Create(o.histOut)
		if err != nil {
			return err
		}
		if err := writeHistCSV(f, res.Collector.Scrape()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("  histograms: %s\n", o.histOut)
	}
	if o.goodput != "" {
		ttft, tpot, err := parseGoodput(o.goodput)
		if err != nil {
			return err
		}
		att := res.Collector.SLOAttainment(ttft, tpot)
		fmt.Printf("  goodput (ttft<=%v tpot<=%v): %.1f%%\n", ttft, tpot, att*100)
	}
	if len(res.Errors) > 0 {
		return fmt.Errorf("%d requests failed", len(res.Errors))
	}
	return nil
}

// writeHistCSV dumps the scrape's Prometheus-shaped latency histograms as
// CSV: one row per cumulative bucket (kind "le:<bound>", "le:+Inf"), plus
// "sum" and "count" rows per metric, in the bucket layout the server's
// /metrics endpoint exposes.
func writeHistCSV(w io.Writer, sc metrics.Scrape) error {
	var b strings.Builder
	b.WriteString("metric,kind,value\n")
	for _, h := range []struct {
		name string
		snap metrics.HistSnapshot
	}{{"ttft_seconds", sc.TTFT}, {"tpot_seconds", sc.TPOT}, {"e2el_seconds", sc.E2E}, {"queue_delay_seconds", sc.Queue}} {
		cum := h.snap.Cumulative()
		for i, bound := range h.snap.Bounds {
			fmt.Fprintf(&b, "%s,le:%g,%d\n", h.name, bound, cum[i])
		}
		fmt.Fprintf(&b, "%s,le:+Inf,%d\n", h.name, h.snap.Count)
		fmt.Fprintf(&b, "%s,sum,%g\n", h.name, h.snap.Sum)
		fmt.Fprintf(&b, "%s,count,%d\n", h.name, h.snap.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// parseGoodput parses the paper's "ttft:1000 tpot:250" millisecond syntax.
func parseGoodput(spec string) (ttft, tpot time.Duration, err error) {
	for _, field := range strings.Fields(spec) {
		k, v, ok := strings.Cut(field, ":")
		if !ok {
			return 0, 0, fmt.Errorf("bad goodput field %q", field)
		}
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad goodput value %q: %v", v, err)
		}
		d := time.Duration(ms * float64(time.Millisecond))
		switch strings.ToLower(k) {
		case "ttft":
			ttft = d
		case "tpot":
			tpot = d
		default:
			return 0, 0, fmt.Errorf("unknown goodput key %q", k)
		}
	}
	if ttft == 0 || tpot == 0 {
		return 0, 0, fmt.Errorf("goodput needs both ttft and tpot: %q", spec)
	}
	return ttft, tpot, nil
}

// Command benchmark is the repo's one benchmark: four workloads, six
// end-to-end metrics each, and a per-layer ledger measured from outside the
// program. BENCHMARK.json at the repo root names the metrics; README.md says
// why each workload exists and which layer metric should move which
// end-to-end metric.
//
//	go run -C benchmark . [-workload name] [-seed N] [-seconds S] [-trace 0|1] [-out file]
//	go run -C benchmark . -compare A.json B.json
//	go run -C benchmark . -update-golden [-seed N]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricDef names one metric and its unit; the tables below are checked
// against BENCHMARK.json by bench_test.go.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"tokens_per_s", "tok/s"},
	{"req_per_s", "req/s"},
	{"ttft_ms_p50", "ms"},
	{"tpot_us_p50", "us"},
	{"live_heap_mb", "MiB"},
}

var perLayerDefs = []metricDef{
	{"server.serve_ns_per_token", "ns"},
	{"server.bytes_per_token", "B"},
	{"server.writes_per_token", "count"},
	{"server.serve_ns_per_req", "ns"},
	{"runtime.ns_per_token_direct", "ns"},
	{"runtime.chan_ns_per_token", "ns"},
	{"runtime.submit_ns", "ns"},
	{"runtime.iter_us", "us"},
	{"runtime.tokens_per_iter", "tok"},
	{"runtime.resident_mean", "count"},
	{"runtime.preemptions", "count"},
	{"runtime.rejected", "count"},
	{"runtime.queue_delay_ms_p50", "ms"},
	{"sched.schedule_ns", "ns"},
	{"sched.schedule_share", "ratio"},
	{"sched.batch_tokens_mean", "tok"},
	{"sched.batch_tokens_cv", "ratio"},
	{"sched.empty_batch_share", "ratio"},
	{"sched.schedule_ns_r10", "ns"},
	{"sched.schedule_ns_r1k", "ns"},
	{"sched.schedule_ns_r10k", "ns"},
	{"kvcache.alloc_free_ns", "ns"},
	{"kvcache.evict_alloc_ns", "ns"},
	{"kvcache.attach_prefix_ns", "ns"},
	{"kvcache.free_rate_min", "ratio"},
	{"kvcache.free_rate_mean", "ratio"},
	{"kvcache.cached_block_share_end", "ratio"},
	{"kvcache.prefix_hit_tokens", "tok"},
	{"gpu.stage_time_ns", "ns"},
	{"metrics.observe_ns", "ns"},
	{"metrics.scrape_us_1m", "us"},
	{"metrics.report_ms_1m", "ms"},
	{"metrics.bytes_per_record", "B"},
	{"cluster.pick_ns", "ns"},
	{"cluster.picks_per_req", "count"},
	{"cluster.submit_self_ns", "ns"},
	{"cluster.home_hit_share", "ratio"},
	{"cluster.prefix_hit_share", "ratio"},
	{"cluster.load_cv", "ratio"},
	{"cluster.retries_429", "count"},
	{"cluster.gave_up", "count"},
	{"cluster.remote_first_slab_us_p50", "us"},
	{"cluster.remote_ns_per_token", "ns"},
	{"sse.reader_ns_per_event", "ns"},
	{"obs.record_ns_on", "ns"},
	{"obs.record_ns_off", "ns"},
	{"obs.trace_overhead_share", "ratio"},
	{"engine.pipeline_ns_per_iter", "ns"},
	{"engine.tensor_ns_per_iter", "ns"},
	{"engine.disagg_ns_per_iter", "ns"},
	{"engine.tokenpar_ns_per_iter", "ns"},
	{"engine.pipeline_host_share", "ratio"},
	{"engine.tensor_host_share", "ratio"},
	{"engine.disagg_host_share", "ratio"},
	{"engine.tokenpar_host_share", "ratio"},
	{"engine.sched_share", "ratio"},
	{"engine.allocs_per_req", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.gllm_tok_s", "tok/s"},
	{"sim.gllm_slo_share", "ratio"},
	{"sim.digest_ok", "0/1"},
	{"workload.gen_items_per_s", "1/s"},
	{"process.allocs_per_token", "count"},
	{"process.allocs_per_req", "count"},
	{"process.gc_cpu_share", "ratio"},
	{"process.idle_cpu_share", "ratio"},
	{"process.peak_rss_mb", "MiB"},
	{"process.live_heap_end_mb", "MiB"},
	{"gen.self_ns_per_req", "ns"},
	{"gen.timer_floor_us", "us"},
	{"gen.ttft_ms_p90", "ms"},
	{"gen.ttft_ms_p99", "ms"},
	{"gen.e2e_ms_p50", "ms"},
	{"gen.e2e_ms_p99", "ms"},
}

var workloadNames = []string{"decode_stream", "cluster_chat", "long_prompt", "sim_sweep"}

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output: exactly these keys.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run is one workload's measured result, as kept in the -out file.
type run struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	FailShare float64          `json:"fail_share"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	// Samples is the sample count behind each percentile metric.
	Samples map[string]int `json:"samples,omitempty"`
	Budget  []budgetLine   `json:"budget,omitempty"`
	Errors  []string       `json:"errors,omitempty"`
}

// emit attaches units to the measured values, insisting every defined
// metric was measured exactly once and nothing undefined was.
func emit(defs []metricDef, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = value{v, d.unit}
	}
	if len(vals) != len(defs) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is measured but not defined", name)
			}
		}
	}
	return out, nil
}

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
}

func main() {
	var o options
	var trace int
	var compare, golden bool
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all four, in one process)")
	flag.Uint64Var(&o.seed, "seed", 20250704, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "length of each measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics, budget tables, out/trace_<workload>.json")
	flag.StringVar(&o.out, "out", "", "append the results to this JSON file")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: -compare A.json B.json")
	flag.BoolVar(&golden, "update-golden", false, "rewrite the seed's line of "+goldenFile)
	flag.Parse()
	o.trace = trace != 0

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare A.json B.json")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case golden:
		err = updateGolden(o.seed)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func runAll(o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d", o.seconds)
	}
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	fp := hostFingerprint()
	var probes probeSet
	var runs []run
	allCorrect := true
	for _, name := range names {
		r, err := runWorkload(name, o, &probes)
		if err != nil {
			return err
		}
		printRun(r, o.trace)
		line := contractLine{r.Correct, r.Attempted, r.Failed, r.EndToEnd}
		if o.trace {
			line.Metrics = r.PerLayer
		}
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		runs = append(runs, *r)
		allCorrect = allCorrect && r.Correct
		fmt.Println(string(b))
	}
	if o.out != "" {
		if err := appendResults(o.out, fp, runs); err != nil {
			return err
		}
	}
	if !allCorrect {
		return fmt.Errorf("correctness gate failed (see errors above)")
	}
	return nil
}

func runWorkload(name string, o options, probes *probeSet) (*run, error) {
	window := time.Duration(o.seconds) * time.Second
	if name == "sim_sweep" {
		return measureSim(fullSim, o, window, probes)
	}
	for _, spec := range liveSpecs() {
		if spec.name == name {
			return measureLive(spec, o, window, probes)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func printRun(r *run, traced bool) {
	fmt.Printf("\n== %s  seed %d  window %d s  attempted %d  failed %d  correct %v\n",
		r.Workload, r.Seed, r.Seconds, r.Attempted, r.Failed, r.Correct)
	for _, e := range r.Errors {
		fmt.Printf("   error: %s\n", e)
	}
	show := func(defs []metricDef, vals map[string]value) {
		for _, d := range defs {
			v := vals[d.name]
			n := ""
			if c, ok := r.Samples[d.name]; ok {
				n = fmt.Sprintf("  (n=%d)", c)
			}
			fmt.Printf("   %-34s %16.4f %-6s%s\n", d.name, v.Value, v.Unit, n)
		}
	}
	show(endToEndDefs, r.EndToEnd)
	if traced {
		fmt.Println("   -- per layer")
		show(perLayerDefs, r.PerLayer)
		printBudget(r)
	}
}

// traceDir is where traced runs write their spans.
const traceDir = "out"

func writeTrace(tr *tracer, workload string) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	return tr.writeFile(filepath.Join(traceDir, "trace_"+workload+".json"))
}

// resultFile is the -out document: one host fingerprint, any number of runs.
type resultFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Runs        []run       `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendResults adds the runs to path, so ten invocations with ten seeds
// build one comparable set. A file from another host shape is refused.
func appendResults(path string, fp fingerprint, runs []run) error {
	rf, err := readResults(path)
	switch {
	case os.IsNotExist(err):
		rf = &resultFile{Fingerprint: fp}
	case err != nil:
		return err
	case !rf.Fingerprint.comparable(fp):
		return fmt.Errorf("%s was recorded on a different host shape (%s vs %s)",
			path, rf.Fingerprint.shape(), fp.shape())
	}
	rf.Runs = append(rf.Runs, runs...)
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// fingerprint says where a result set was recorded. Results from hosts that
// differ in nproc or GOMAXPROCS are not comparable and are refused.
type fingerprint struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	CPUModel     string  `json:"cpu_model"`
	TimerFloorUs float64 `json:"timer_floor_us"`
	GitCommit    string  `json:"git_commit"`
	// Work holds the frozen work counts that define the workloads.
	Work map[string]int `json:"work"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPUModel:     "unknown",
		TimerFloorUs: timerFloor(40),
		GitCommit:    "unknown",
		Work: map[string]int{
			"decode_stream.clients": decodeClients, "decode_stream.warmup_requests": decodeWarmup,
			"decode_stream.prompt_len": decodePrompt, "decode_stream.max_tokens": decodeTokens,
			"cluster_chat.clients": chatClients, "cluster_chat.replicas": chatReplicas,
			"cluster_chat.warmup_requests": chatWarmup, "cluster_chat.trace_items": chatItems,
			"long_prompt.clients": longClients, "long_prompt.warmup_requests": longWarmup,
			"long_prompt.trace_items": longItems,
			"sim_sweep.window_s":      int(fullSim.window.Seconds()),
			"sim_sweep.repeat_tensor": fullSim.repeat[engTensor], "sim_sweep.repeat_disagg": fullSim.repeat[engDisagg],
			"sim_sweep.repeat_tokenpar": fullSim.repeat[engTokenPar],
			"setup_repeats":             setupRepeats,
		},
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				fp.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if c := gitCommit("../.git"); c != "" {
		fp.GitCommit = c
	}
	return fp
}

// gitCommit reads HEAD from a git directory without running git (which
// would search parent directories). A benchmark checkout need not be a
// repository, and a packed ref is not chased: both give "".
func gitCommit(gitDir string) string {
	head, err := os.ReadFile(gitDir + "/HEAD")
	if err != nil {
		return ""
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h // detached HEAD
	}
	b, err := os.ReadFile(gitDir + "/" + ref)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

func (f fingerprint) shape() string {
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d", f.NProc, f.GOMAXPROCS)
}

func (f fingerprint) comparable(g fingerprint) bool {
	return f.NProc == g.NProc && f.GOMAXPROCS == g.GOMAXPROCS
}

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// specFile is BENCHMARK.json as seen from the benchmark's own directory.
const specFile = "../BENCHMARK.json"

func readSpec() (*benchSpec, error) {
	b, err := os.ReadFile(specFile)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return &s, nil
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method (Python's statistics.quantiles(xs, n=4)), which is how
// the driver measures spread. Fewer than two values have no spread.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= n:
			return s[n-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// seedsOf lists a workload's seeds in a result set, sorted.
func seedsOf(runs []run, workload string) []uint64 {
	var seeds []uint64
	for _, r := range runs {
		if r.Workload == workload {
			seeds = append(seeds, r.Seed)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return seeds
}

// valuesOf lists one end-to-end metric over a workload's runs.
func valuesOf(runs []run, workload, metric string) []float64 {
	var vs []float64
	for _, r := range runs {
		if r.Workload == workload {
			vs = append(vs, r.EndToEnd[metric].Value)
		}
	}
	return vs
}

// compareFiles prints one row per (metric, workload): both medians, the
// ratio with A as its base, the bound, and a verdict. "worse" means B's
// median is worse than A's by more than the bound; "unresolved" means either
// side's interquartile spread is wider than the bound, so the runs cannot
// tell; "better" means B improved by more than both spreads.
func compareFiles(w io.Writer, pathA, pathB string) error {
	spec, err := readSpec()
	if err != nil {
		return err
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	if !a.Fingerprint.comparable(b.Fingerprint) {
		return fmt.Errorf("refusing to compare: %s is %s, %s is %s",
			pathA, a.Fingerprint.shape(), pathB, b.Fingerprint.shape())
	}
	fmt.Fprintf(w, "A = %s (%s)\nB = %s (%s)\n", pathA, a.Fingerprint.GitCommit, pathB, b.Fingerprint.GitCommit)
	fmt.Fprintf(w, "%-14s %-14s %3s %14s %14s %9s %7s %7s  %s\n",
		"workload", "metric", "n", "median A", "median B", "B/A", "spread", "bound", "verdict")
	bad := 0
	for _, wl := range workloadNames {
		sa, sb := seedsOf(a.Runs, wl), seedsOf(b.Runs, wl)
		if len(sa) == 0 && len(sb) == 0 {
			continue
		}
		if fmt.Sprint(sa) != fmt.Sprint(sb) {
			return fmt.Errorf("refusing to compare %s: seeds differ (%v vs %v)", wl, sa, sb)
		}
		for _, m := range spec.EndToEnd {
			va, vb := valuesOf(a.Runs, wl, m.Name), valuesOf(b.Runs, wl, m.Name)
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			spread := max(ratio(q3a-q1a, ma), ratio(q3b-q1b, mb))
			// change > 0 means B is worse, as a share of A's median.
			change := ratio(mb-ma, ma)
			if m.Better == "higher" {
				change = -change
			}
			verdict := "within"
			switch {
			case spread > m.Bound && m.Name != "setup_s":
				verdict = "unresolved"
				bad++
			case change > m.Bound:
				verdict = "worse"
				bad++
			case -change > spread && -change > 0:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-14s %-14s %3d %14.4f %14.4f %9.4f %6.1f%% %6.1f%%  %s\n",
				wl, m.Name, len(va), ma, mb, ratio(mb, ma), 100*spread, 100*m.Bound, verdict)
		}
		var failed int64
		for _, r := range append(append([]run(nil), a.Runs...), b.Runs...) {
			if r.Workload == wl {
				failed += r.Failed
				if !r.Correct {
					failed++
				}
			}
		}
		if failed != 0 {
			fmt.Fprintf(w, "%-14s fail_share is not 0 on one side\n", wl)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are worse, unresolved or incorrect", bad)
	}
	return nil
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// The self-test runs every workload at a few hundredths of a percent of its
// size. It checks the benchmark, not the program: that every metric
// BENCHMARK.json names is emitted with its unit, and that the correctness
// gate trips on a planted fault. Run it with: go test -C benchmark .

const testWindow = 150 * time.Millisecond

var (
	tinySim  = simSpec{window: 8 * time.Second, repeat: [numEngines]int{1, 1, 1, 1}}
	tinyLive = []liveSpec{
		{name: "decode_stream", clients: 4, runtimes: 1, warmup: 8, build: buildDecodeStream},
		{name: "cluster_chat", clients: 32, runtimes: chatReplicas, warmup: 80, items: 2000, build: buildClusterChat},
		{name: "long_prompt", clients: 48, runtimes: 1, warmup: 24, items: 500, build: buildLongPrompt},
	}
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name, Unit, Better string
}

type fullSpec struct {
	Command    []string
	Paths      []string
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) fullSpec {
	t.Helper()
	b, err := os.ReadFile(specFile)
	if err != nil {
		t.Fatal(err)
	}
	var s fullSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkEmitted asserts the emitted set is exactly the spec's, unit by unit.
func checkEmitted(t *testing.T, workload string, want []specMetric, got map[string]value, nonZero bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", workload, len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is not emitted", workload, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", workload, m.Name, v.Unit, m.Unit)
		case nonZero && v.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", workload, m.Name, v.Value)
		}
	}
}

func TestSpecAndCodeAgree(t *testing.T) {
	spec := loadSpec(t)
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %v", m.Name, nameRE)
		}
		if seen[m.Name] {
			t.Errorf("metric %q is named twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(spec.EndToEnd) != len(endToEndDefs) || len(spec.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the code defines %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	for i, d := range endToEndDefs {
		if m := spec.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end_to_end[%d]: spec %s (%s), code %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	for i, d := range perLayerDefs {
		if m := spec.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d]: spec %s (%s), code %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: spec %s, code %s", i, w.Name, workloadNames[i])
		}
	}
}

// TestEveryMetricEmitted runs each workload traced at tiny scale: both
// metric sets must come out complete, and nothing may fail.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	chdir(t, t.TempDir()) // traced runs write out/trace_<workload>.json
	o := options{seed: 7, seconds: 1, trace: true}
	probes := &probeSet{div: 400}
	var runs []*run
	for _, ls := range tinyLive {
		r, err := measureLive(ls, o, testWindow, probes)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	r, err := measureSim(tinySim, o, testWindow, probes)
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs, r)
	for _, r := range runs {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct %v, attempted %d, failed %d: %v", r.Workload, r.Correct, r.Attempted, r.Failed, r.Errors)
		}
		checkEmitted(t, r.Workload, spec.EndToEnd, r.EndToEnd, true)
		checkEmitted(t, r.Workload, spec.PerLayer, r.PerLayer, false)
		if _, err := os.Stat(filepath.Join(traceDir, "trace_"+r.Workload+".json")); err != nil {
			t.Errorf("%s: %v", r.Workload, err)
		}
		if r.Workload != "sim_sweep" && len(r.Budget) == 0 {
			t.Errorf("%s: no budget table", r.Workload)
		}
		// In-situ cluster metrics belong to cluster_chat alone.
		if picks := r.PerLayer["cluster.picks_per_req"].Value; (picks > 0) != (r.Workload == "cluster_chat") {
			t.Errorf("%s: cluster.picks_per_req = %v", r.Workload, picks)
		}
	}
}

// chdir is testing.T.Chdir, which the go line of go.mod predates.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Error(err)
		}
	})
}

// A ResponseWriter that swallows one token must show up as a failed request.
func TestSwallowedTokenFails(t *testing.T) {
	for _, ls := range tinyLive {
		out, err := runLive(ls, 7, testWindow, nil, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		// cluster_chat's audit also reports the short stream; the others
		// fail on the token count alone.
		if out.failed != 1 {
			t.Errorf("%s: %d failed requests with one swallowed token, want 1 (errs %v)", ls.name, out.failed, out.errs)
		}
		if ls.name != "cluster_chat" && len(out.errs) != 0 {
			t.Errorf("%s: unexpected errors %v", ls.name, out.errs)
		}
	}
}

// A flipped digest byte must clear sim.digest_ok and count as a failure.
func TestFlippedDigestFails(t *testing.T) {
	out := runSim(tinySim, 7, testWindow, nil, true)
	if out.digestOK || out.failed == 0 {
		t.Errorf("digestOK %v, failed %d after a flipped digest byte", out.digestOK, out.failed)
	}
	clean := runSim(tinySim, 7, testWindow, nil, false)
	if !clean.digestOK || clean.failed != 0 {
		t.Errorf("clean sweep: digestOK %v, failed %d: %v", clean.digestOK, clean.failed, clean.errs)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	fp := fingerprint{NProc: 2, GOMAXPROCS: 2}
	mk := func(tokS float64) []run {
		var runs []run
		for seed := uint64(1); seed <= 4; seed++ {
			e := map[string]value{}
			for _, d := range endToEndDefs {
				e[d.name] = value{100, d.unit}
			}
			e["tokens_per_s"] = value{tokS + float64(seed), "tok/s"}
			runs = append(runs, run{Workload: "decode_stream", Seed: seed, Correct: true, Attempted: 1, EndToEnd: e})
		}
		return runs
	}
	write := func(name string, fp fingerprint, runs []run) string {
		path := filepath.Join(dir, name)
		if err := appendResults(path, fp, runs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", fp, mk(1000))
	same := write("same.json", fp, mk(1001))
	slow := write("slow.json", fp, mk(600))
	other := write("other.json", fingerprint{NProc: 8, GOMAXPROCS: 8}, mk(1000))
	if err := compareFiles(os.Stderr, a, same); err != nil {
		t.Errorf("equal sets: %v", err)
	}
	if err := compareFiles(os.Stderr, a, slow); err == nil {
		t.Error("a 40 % slower set compared as no worse")
	}
	if err := compareFiles(os.Stderr, a, other); err == nil {
		t.Error("sets from different host shapes were compared")
	}
}

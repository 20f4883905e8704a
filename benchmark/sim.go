package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"gllm/internal/core"
	"gllm/internal/engine"
	"gllm/internal/experiments"
	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/sched"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// sim_sweep: a fixed grid of virtual-time runs on one goroutine. The live
// workloads never execute internal/engine or internal/sim; this one does
// nothing else.

// schedulerNames are the nine policies sched.ByName knows.
var schedulerNames = []string{
	"sarathi", "gllm-ck", "vllm-ve", "td-pipe", "orca", "batch-level",
	"gllm", "gllm-no-wt", "gllm-no-ut",
}

// Engines of the sweep, in ledger order.
const (
	engPipeline = iota
	engTensor
	engDisagg
	engTokenPar
	numEngines
)

var engineNames = [numEngines]string{"pipeline", "tensor", "disagg", "tokenpar"}

// simSpec sizes the sweep: the send window of every trace, and how often
// each engine's cells run per lap.
type simSpec struct {
	window time.Duration
	repeat [numEngines]int
}

// fullSim is the benchmark's grid: the paper's 128 s send window, and cell
// multiplicities chosen so every engine takes at least 15 % of a lap's host
// time at the seed commit (pipeline alone would take three quarters).
var fullSim = simSpec{window: 128 * time.Second, repeat: [numEngines]int{1, 5, 2, 5}}

// simTrace is one seeded Poisson trace of the grid.
type simTrace struct {
	name  string
	items []workload.Item
}

// simCell is one (engine, policy, trace) run of the grid.
type simCell struct {
	name   string
	engine int
	trace  int
	run    func(items []workload.Item, wrap func(sched.Scheduler) sched.Scheduler) (*engine.Result, error)
}

// headline cells of the paper's figures.
const (
	cellThroughput = "pipeline/gllm/sharegpt@8" // Fig. 10/13
	cellSLO        = "pipeline/gllm/sharegpt@4" // Fig. 14
)

func simTraces(seed uint64, window time.Duration) []simTrace {
	rng := stats.NewRNG(seed)
	var out []simTrace
	for _, t := range []struct {
		ds    workload.Dataset
		rates []float64
	}{
		{workload.ShareGPT, []float64{2, 4, 8}},
		{workload.Azure, []float64{0.5, 1, 2}},
	} {
		for _, rate := range t.rates {
			out = append(out, simTrace{
				name:  fmt.Sprintf("%s@%g", t.ds.Name, rate),
				items: workload.Poisson(rng.Split(), t.ds, rate, window),
			})
		}
	}
	return out
}

func simConfig(s sched.Scheduler) engine.Config {
	return engine.Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: s,
		Runtime:   engine.GLLMRuntime,
	}
}

func mustScheduler(name string) sched.Scheduler {
	s, err := sched.ByName(name, 2048, core.DefaultParams())
	if err != nil {
		panic(err) // names come from schedulerNames
	}
	return s
}

// simGrid lists one lap's cells, multiplicities expanded, grouped by trace.
func simGrid(traces []simTrace, repeat [numEngines]int) []simCell {
	var cells []simCell
	add := func(eng, trace int, label string, run func([]workload.Item, func(sched.Scheduler) sched.Scheduler) (*engine.Result, error)) {
		for i := 0; i < repeat[eng]; i++ {
			cells = append(cells, simCell{
				name:   engineNames[eng] + "/" + label + "/" + traces[trace].name,
				engine: eng, trace: trace, run: run,
			})
		}
	}
	for ti := range traces {
		for _, name := range schedulerNames {
			name := name
			add(engPipeline, ti, name, func(items []workload.Item, wrap func(sched.Scheduler) sched.Scheduler) (*engine.Result, error) {
				return engine.RunPipeline(simConfig(wrap(mustScheduler(name))), items)
			})
		}
		for _, name := range []string{"gllm", "sarathi"} {
			name := name
			add(engTensor, ti, name, func(items []workload.Item, wrap func(sched.Scheduler) sched.Scheduler) (*engine.Result, error) {
				return engine.RunTensor(simConfig(wrap(mustScheduler(name))), items)
			})
			add(engTokenPar, ti, name, func(items []workload.Item, wrap func(sched.Scheduler) sched.Scheduler) (*engine.Result, error) {
				return engine.RunTokenParallel(engine.TokenParallelConfig{
					Config: simConfig(wrap(mustScheduler(name))), RootTP: 2,
				}, items)
			})
		}
		for prefill := 1; prefill <= 3; prefill++ {
			prefill := prefill
			// The disaggregated engine builds its own per-replica
			// schedulers, so there is nothing to wrap.
			add(engDisagg, ti, fmt.Sprintf("%dP%dD", prefill, 4-prefill), func(items []workload.Item, _ func(sched.Scheduler) sched.Scheduler) (*engine.Result, error) {
				return engine.RunDisaggregated(engine.DisaggConfig{Config: simConfig(nil), PrefillGPUs: prefill}, items)
			})
		}
	}
	return cells
}

// cellDigest hashes what a cell simulated: its Report (every latency
// sample included), makespan, preemptions, injections (= iterations).
func cellDigest(res *engine.Result) [sha256.Size]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("%+v|%d|%d|%d",
		res.Report, res.Makespan, res.Preemptions, res.Injections)))
}

// simLap is one pass over the grid.
type simLap struct {
	host             time.Duration
	requests, tokens int64
	digests          [][sha256.Size]byte
	engHost          [numEngines]time.Duration
	engIters         [numEngines]int64
	errs             []string
	// headline statistics (modelled time)
	ttftP50, tpotP50 float64 // seconds
	gllmTokS         float64
	gllmSLO          float64
}

func (l *simLap) digest() string {
	h := sha256.New()
	for _, d := range l.digests {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func runLap(traces []simTrace, cells []simCell, wrap func(sched.Scheduler) sched.Scheduler) *simLap {
	lap := &simLap{digests: make([][sha256.Size]byte, len(cells))}
	start := time.Now()
	for i, c := range cells {
		t0 := time.Now()
		res, err := c.run(traces[c.trace].items, wrap)
		d := time.Since(t0)
		if err != nil {
			lap.errs = append(lap.errs, fmt.Sprintf("%s: %v", c.name, err))
			continue
		}
		lap.engHost[c.engine] += d
		lap.engIters[c.engine] += int64(res.Injections)
		lap.requests += int64(res.Report.Requests)
		lap.tokens += res.Report.OutputTokens
		lap.digests[i] = cellDigest(res)
		switch c.name {
		case cellSLO:
			slo := experiments.SLOShareGPTAdjusted
			lap.gllmSLO = res.Collector.SLOAttainment(slo.TTFT, slo.TPOT)
			lap.ttftP50, lap.tpotP50 = res.Report.TTFT.P50, res.Report.TPOT.P50
		case cellThroughput:
			lap.gllmTokS = res.Report.TokenThroughput
		}
	}
	lap.host = time.Since(start)
	return lap
}

// simOutcome is one sim_sweep run.
type simOutcome struct {
	setup             time.Duration
	heapMB, heapEndMB float64
	gcShare           float64
	laps              []*simLap
	attempted, failed int64
	errs              []string
	digestOK          bool
	mallocs           uint64
}

func identity(s sched.Scheduler) sched.Scheduler { return s }

// runSim measures whole laps of the grid until the window is used up.
// fault flips one byte of the first lap's first digest after it was
// computed (self-test).
func runSim(spec simSpec, seed uint64, window time.Duration, tr *tracer, fault bool) *simOutcome {
	out := &simOutcome{digestOK: true}
	var traces []simTrace
	var cells []simCell
	var setups []time.Duration
	var warm []*engine.Result
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		traces = simTraces(seed, spec.window)
		cells = simGrid(traces, spec.repeat)
		// Warm-up: each engine once, on the second trace (ShareGPT @ 4).
		// Their results stay referenced, so live_heap_mb is what a sweep's
		// inputs plus a fixed set of results occupy.
		warm = warm[:0]
		seen := [numEngines]bool{}
		for _, c := range cells {
			if c.trace == 1 && !seen[c.engine] {
				seen[c.engine] = true
				res, err := c.run(traces[1].items, identity)
				if err != nil {
					out.errs = append(out.errs, fmt.Sprintf("warm-up %s: %v", c.name, err))
				}
				warm = append(warm, res)
			}
		}
		out.heapMB = float64(liveHeap()) / mib
		setups = append(setups, time.Since(t0))
	}
	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
	out.setup = setups[len(setups)/2]
	runtime.KeepAlive(warm)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	gc0, _, cpu0 := cpuSeconds()

	wrap := identity
	if tr != nil {
		wrap = func(s sched.Scheduler) sched.Scheduler { return timedScheduler{inner: s, tr: tr} }
	}
	var reference [][sha256.Size]byte // lap 1's digests, as first computed
	start := time.Now()
	for len(out.laps) == 0 || time.Since(start) < window {
		lapStart := time.Now()
		lap := runLap(traces, cells, wrap)
		if tr != nil {
			tr.add(0, "sim.lap", "", lapStart, time.Now())
		}
		if len(out.laps) == 0 {
			reference = append(reference, lap.digests...)
		}
		if fault && len(out.laps) == 0 {
			lap.digests[0][0] ^= 1
		}
		out.laps = append(out.laps, lap)
		out.attempted += int64(len(cells))
		out.failed += int64(len(lap.errs))
		out.errs = append(out.errs, lap.errs...)
		// Determinism: every cell must hash as it did on the first lap.
		for i, d := range lap.digests {
			if d != reference[i] {
				out.failed++
				out.digestOK = false
				out.errs = append(out.errs, fmt.Sprintf("%s: digest differs from lap 1", cells[i].name))
			}
		}
	}
	gc1, _, cpu1 := cpuSeconds()
	out.gcShare = ratio(gc1-gc0, cpu1-cpu0)
	runtime.ReadMemStats(&ms)
	out.mallocs = ms.Mallocs - mallocs0
	out.heapEndMB = float64(liveHeap()) / mib

	golden, err := parseGolden(goldenDigests)
	if err != nil {
		out.errs = append(out.errs, err.Error())
		out.digestOK = false
		out.failed++
	}
	if want, ok := golden[seed]; ok && spec == fullSim {
		if got := out.laps[0].digest(); got != want {
			out.failed++
			out.digestOK = false
			out.errs = append(out.errs, fmt.Sprintf("lap digest %s differs from committed golden %s", got, want))
		}
	}
	return out
}

// goldenFile holds "seed digest" lines: the lap digest each listed seed
// must reproduce. Other seeds are checked lap against lap only. It is
// embedded, so the check does not depend on the working directory.
const goldenFile = "golden_sim_digest.txt"

//go:embed golden_sim_digest.txt
var goldenDigests string

func parseGolden(text string) (map[uint64]string, error) {
	out := make(map[uint64]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		seed, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil || len(fields) != 2 {
			return nil, fmt.Errorf("%s: bad line %q", goldenFile, sc.Text())
		}
		out[seed] = fields[1]
	}
	return out, sc.Err()
}

// updateGolden runs one lap for the seed and rewrites its line of
// goldenFile in the working directory (the benchmark's own).
func updateGolden(seed uint64) error {
	traces := simTraces(seed, fullSim.window)
	lap := runLap(traces, simGrid(traces, fullSim.repeat), identity)
	if len(lap.errs) > 0 {
		return fmt.Errorf("%s: %s", goldenFile, strings.Join(lap.errs, "; "))
	}
	golden, err := parseGolden(goldenDigests)
	if err != nil {
		return err
	}
	golden[seed] = lap.digest()
	seeds := make([]uint64, 0, len(golden))
	for s := range golden {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	var b strings.Builder
	b.WriteString("# seed, then sha256 over one sim_sweep lap; regenerate a line with: go run . -update-golden -seed N\n")
	for _, s := range seeds {
		fmt.Fprintf(&b, "%d %s\n", s, golden[s])
	}
	return os.WriteFile(goldenFile, []byte(b.String()), 0o644)
}

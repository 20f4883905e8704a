package invariant

import (
	"testing"
	"time"

	"gllm/internal/core"
	"gllm/internal/engine"
	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/sched"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// TestKVExhaustionDoesNotStall replays a seeded Azure trace whose every
// request fits the 602-block KV cache, but whose long prompts fill it with
// partial prefills until nothing decodes and nothing is in flight. Without
// the pool's stall rule (DESIGN.md §8) Sarathi finished 5 of the 20
// requests and the throttle 7, then waited forever. Every policy but
// gllm-no-ut (a livelock on this trace, see ROADMAP) must finish them all,
// clean under the checker.
func TestKVExhaustionDoesNotStall(t *testing.T) {
	items := workload.Poisson(stats.NewRNG(11), workload.Azure, 2, 10*time.Second)
	for _, name := range []string{"sarathi", "gllm", "gllm-no-wt", "gllm-ck", "vllm-ve", "td-pipe", "orca", "batch-level"} {
		s, err := sched.ByName(name, 2048, core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		col := NewCollector()
		res, err := engine.RunPipeline(engine.Config{
			Model:     model.Qwen25_32B,
			GPU:       gpu.L20,
			Topo:      network.IntraNode(4, network.PCIe),
			MemUtil:   0.315,
			Scheduler: s,
			Runtime:   engine.VLLMRuntime,
			Observer:  col.Observer,
		}, items)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Report.Requests != len(items) || col.Cycles() == 0 {
			t.Errorf("%s: %d/%d finished over %d audited cycles", name, res.Report.Requests, len(items), col.Cycles())
		}
		t.Logf("%s: %d preemptions", name, res.Preemptions)
	}
}

// TestSweepAllCombosClean drives the full scheduler × engine cross under
// randomized bursty load: zero violations expected everywhere.
func TestSweepAllCombosClean(t *testing.T) {
	rep := Run(HarnessConfig{Seed: 1, Requests: 150})
	if rep.Combos == 0 || rep.Cycles == 0 {
		t.Fatalf("sweep audited nothing: %d combos, %d cycles", rep.Combos, rep.Cycles)
	}
	for _, f := range rep.Failures {
		t.Errorf("%v: %v (reproducer: %d requests)", f.Combo, f.Err, len(f.Reproducer))
	}
}

// TestSweepWithCPPAndPrefixCacheClean re-runs the sweep with chunked
// pipeline parallelism and prefix caching enabled — the two optional pool
// modes with their own accounting paths.
func TestSweepWithCPPAndPrefixCacheClean(t *testing.T) {
	rep := Run(HarnessConfig{
		Seed:        2,
		Requests:    100,
		CPP:         true,
		PrefixCache: true,
	})
	for _, f := range rep.Failures {
		t.Errorf("%v: %v (reproducer: %d requests)", f.Combo, f.Err, len(f.Reproducer))
	}
}

// TestTenThousandRequestAcceptance is the issue's acceptance bar: the
// unmodified throttle and sarathi each serve a 10k-request randomized
// workload under invariant checking with zero violations.
func TestTenThousandRequestAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-request acceptance run skipped in -short mode")
	}
	const n = 10000
	for i, name := range []string{"gllm", "sarathi"} {
		items := Workload(stats.NewRNG(uint64(100+i)), n, 96, 48)
		combo := Combo{Engine: "pipeline", Scheduler: name}
		cycles, err := RunCombo(combo, items)
		if err != nil {
			t.Fatalf("%v over %d requests: %v", combo, n, err)
		}
		if cycles == 0 {
			t.Fatalf("%v audited zero cycles", combo)
		}
		t.Logf("%v: %d requests, %d audited cycles, zero violations", combo, n, cycles)
	}
}

// TestWorkloadDeterministic: the same seed yields the same trace (the whole
// harness depends on it).
func TestWorkloadDeterministic(t *testing.T) {
	a := Workload(stats.NewRNG(7), 50, 96, 48)
	b := Workload(stats.NewRNG(7), 50, 96, 48)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("item %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

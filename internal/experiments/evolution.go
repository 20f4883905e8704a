package experiments

import (
	"fmt"

	"gllm/internal/engine"
	"gllm/internal/model"
	"gllm/internal/sched"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// EvolutionRow is one scheduling policy's outcome in the lineage study.
type EvolutionRow struct {
	Policy     string
	TTFT       float64 // mean seconds
	TPOT       float64
	E2E        float64
	Throughput float64
	TokenCV    float64 // per-iteration batched-token volatility
	Bubble     float64 // stage idle fraction
}

// EvolutionResult reproduces §2.2's scheduling lineage on one workload:
// batch-level (FasterTransformer) → iteration-level (Orca) → chunked hybrid
// (Sarathi-Serve) → Token Throttling (gLLM). Each step should recover part
// of the latency/throughput the previous one leaves on the table.
type EvolutionResult struct {
	Rows []EvolutionRow
}

// SchedulingEvolution runs the four-policy comparison on the 14B intra-node
// testbed. All policies run on the identical engine, runtime model and
// workload, so differences are purely scheduling.
func SchedulingEvolution(sc Scale, rate float64, ds workload.Dataset) (*EvolutionResult, error) {
	cluster := IntraNodeL20(model.Qwen25_14B)
	items := sc.trace(ds, rate)

	policies := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"batch-level", func() sched.Scheduler { return sched.NewBatchLevel(64) }},
		{"orca", func() sched.Scheduler { return sched.NewOrca(256) }},
		{"sarathi", func() sched.Scheduler { return sched.NewSarathi(2048) }},
		{"gllm", func() sched.Scheduler { return sched.NewDefaultThrottle() }},
	}
	var out EvolutionResult
	for _, pol := range policies {
		cfg := engine.Config{
			Model:     cluster.Model,
			GPU:       cluster.GPU,
			Topo:      cluster.Topo,
			MemUtil:   cluster.MemUtil,
			Scheduler: pol.mk(),
			// Same runtime for all: isolate the scheduling policy.
			Runtime: engine.GLLMRuntime,
		}
		var log engine.BatchLog
		cfg.Observer = log.Observer(nil)
		res, err := engine.RunPipeline(cfg, items)
		if err != nil {
			return nil, fmt.Errorf("experiments evolution: %s: %w", pol.name, err)
		}
		out.Rows = append(out.Rows, EvolutionRow{
			Policy:     pol.name,
			TTFT:       res.Report.TTFT.Mean,
			TPOT:       res.Report.TPOT.Mean,
			E2E:        res.Report.E2E.Mean,
			Throughput: res.Report.TokenThroughput,
			TokenCV:    stats.Summarize(log.Tokens()).CV(),
			Bubble:     res.BubbleFraction,
		})
	}
	return &out, nil
}

// String renders the lineage table.
func (r *EvolutionResult) String() string {
	out := "Scheduling evolution (§2.2 lineage, identical engine/workload)\n" +
		fmt.Sprintf("  %-12s %9s %10s %9s %12s %8s %8s\n",
			"policy", "TTFT(s)", "TPOT(ms)", "E2EL(s)", "tput(tok/s)", "tokenCV", "bubble")
	for _, row := range r.Rows {
		out += fmt.Sprintf("  %-12s %9.3f %10.1f %9.2f %12.1f %8.2f %8.2f\n",
			row.Policy, row.TTFT, row.TPOT*1e3, row.E2E, row.Throughput, row.TokenCV, row.Bubble)
	}
	return out
}

package experiments

import (
	"fmt"
	"time"

	"gllm/internal/engine"
	"gllm/internal/model"
	"gllm/internal/workload"
)

// DisaggRow is one deployment's outcome on one workload mix.
type DisaggRow struct {
	Deployment string
	Workload   string
	TTFT       float64
	TPOT       float64
	E2E        float64
	Throughput float64
}

// DisaggResult reproduces the paper's §1–§2 argument against static
// prefill/decode disaggregation: the optimal GPU split depends on the
// workload mix, while the unified Token-Throttling deployment adapts. Each
// workload mix is served by every static split (1P3D, 2P2D, 3P1D) and by
// unified gLLM on the same 4 GPUs.
type DisaggResult struct {
	Rows []DisaggRow
}

// DisaggRatio runs the comparison on the 14B intra-node testbed over three
// mixes: chat (ShareGPT), prompt-heavy (Azure) and decode-heavy synthetic.
func DisaggRatio(sc Scale, rate float64) (*DisaggResult, error) {
	cluster := IntraNodeL20(model.Qwen25_14B)
	mixes := []struct {
		name  string
		items []workload.Item
	}{
		{"chat", sc.trace(workload.ShareGPT, rate)},
		{"prompt-heavy", sc.trace(workload.Azure, rate/3)},
		{"decode-heavy", workload.Uniform(int(rate*sc.Window.Seconds()/2), 64, 400,
			time.Duration(float64(2*time.Second)/rate))},
	}

	var out DisaggResult
	for _, mix := range mixes {
		for p := 1; p <= 3; p++ {
			cfg := engine.DisaggConfig{
				Config: engine.Config{
					Model:   cluster.Model,
					GPU:     cluster.GPU,
					Topo:    cluster.Topo,
					MemUtil: cluster.MemUtil,
					Runtime: engine.GLLMRuntime,
				},
				PrefillGPUs: p,
			}
			res, err := engine.RunDisaggregated(cfg, mix.items)
			if err != nil {
				return nil, fmt.Errorf("experiments disagg: %s %dP: %w", mix.name, p, err)
			}
			out.Rows = append(out.Rows, DisaggRow{
				Deployment: res.SchedulerName,
				Workload:   mix.name,
				TTFT:       res.Report.TTFT.Mean,
				TPOT:       res.Report.TPOT.Mean,
				E2E:        res.Report.E2E.Mean,
				Throughput: res.Report.TokenThroughput,
			})
		}
		res, err := SysGLLM.Run(cluster, mix.items)
		if err != nil {
			return nil, fmt.Errorf("experiments disagg: %s unified: %w", mix.name, err)
		}
		out.Rows = append(out.Rows, DisaggRow{
			Deployment: "gllm-unified",
			Workload:   mix.name,
			TTFT:       res.Report.TTFT.Mean,
			TPOT:       res.Report.TPOT.Mean,
			E2E:        res.Report.E2E.Mean,
			Throughput: res.Report.TokenThroughput,
		})
	}
	return &out, nil
}

// String renders the comparison grouped by workload.
func (r *DisaggResult) String() string {
	out := "Prefill/decode disaggregation vs unified Token Throttling (4 x L20, 14B)\n"
	last := ""
	for _, row := range r.Rows {
		if row.Workload != last {
			out += fmt.Sprintf("  %s:\n", row.Workload)
			last = row.Workload
		}
		out += fmt.Sprintf("    %-13s TTFT %7.3fs  TPOT %6.1fms  E2EL %7.2fs  tput %9.1f tok/s\n",
			row.Deployment, row.TTFT, row.TPOT*1e3, row.E2E, row.Throughput)
	}
	return out
}

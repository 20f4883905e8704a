package experiments

import (
	"context"
	"fmt"

	"gllm/internal/engine"
	"gllm/internal/model"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// Fig1Series is one system's per-iteration scheduled token counts plus
// volatility statistics (Figure 1 compares Sarathi-Serve against a balanced
// schedule with token budget 2048).
type Fig1Series struct {
	System string
	Total  []float64
	// Volatility metrics over the total batched token counts.
	Mean float64
	Std  float64
	CV   float64
}

// Fig1Result holds both systems' series.
type Fig1Result struct {
	Sarathi Fig1Series
	GLLM    Fig1Series
}

// Fig1TokenVolatility reproduces Figure 1: the same ShareGPT workload is
// served by the Sarathi baseline and by gLLM on the 32B intra-node testbed,
// and the per-iteration batched token counts are compared. The expected
// shape: Sarathi's counts swing between budget-filling prefill spikes and
// thin decode-only batches, while gLLM holds a near-constant level.
func Fig1TokenVolatility(sc Scale, rate float64) (*Fig1Result, error) {
	cluster := IntraNodeL20(model.Qwen25_32B)
	items := sc.trace(workload.ShareGPT, rate)

	series, err := RunGrid(context.Background(), []System{SysVLLM, SysGLLM}, sc.Workers,
		func(_ context.Context, sys System) (Fig1Series, error) {
			var log engine.BatchLog
			cfg := sys.config(cluster)
			cfg.Observer = log.Observer(nil)
			if _, err := engine.RunPipeline(cfg, items); err != nil {
				return Fig1Series{}, fmt.Errorf("experiments fig1: %s: %w", sys.Name, err)
			}
			total := log.Tokens()
			sum := stats.Summarize(total)
			return Fig1Series{
				System: sys.Name,
				Total:  total,
				Mean:   sum.Mean,
				Std:    sum.Std,
				CV:     sum.CV(),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return &Fig1Result{Sarathi: series[0], GLLM: series[1]}, nil
}

// String renders the volatility comparison.
func (r *Fig1Result) String() string {
	return fmt.Sprintf(
		"Figure 1 — scheduled token volatility (budget 2048)\n"+
			"  %-10s iters=%5d mean=%7.1f std=%7.1f cv=%.3f\n"+
			"  %-10s iters=%5d mean=%7.1f std=%7.1f cv=%.3f\n"+
			"  volatility ratio (sarathi/gllm std): %.2fx\n",
		r.Sarathi.System, len(r.Sarathi.Total), r.Sarathi.Mean, r.Sarathi.Std, r.Sarathi.CV,
		r.GLLM.System, len(r.GLLM.Total), r.GLLM.Mean, r.GLLM.Std, r.GLLM.CV,
		r.VolatilityRatio())
}

// VolatilityRatio returns Sarathi's token-count standard deviation over
// gLLM's (>1 means gLLM is smoother).
func (r *Fig1Result) VolatilityRatio() float64 {
	if r.GLLM.Std == 0 {
		return 0
	}
	return r.Sarathi.Std / r.GLLM.Std
}

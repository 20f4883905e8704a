package experiments

import (
	"context"
	"fmt"
	"time"

	"gllm/internal/engine"
	"gllm/internal/model"
	"gllm/internal/obs"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// Fig4Result reproduces Figure 4: GPU utilization and batched token counts
// over time while the Sarathi baseline serves a 32B model on 4 GPUs. The
// paper's observation: a first phase with high fluctuation while requests
// arrive (mixed prefill+decode), then a steadier but suboptimal decode-only
// phase; batched token counts fluctuate throughout.
type Fig4Result struct {
	System string
	// StageUtil is the per-stage utilization time series.
	StageUtil []*stats.TimeSeries
	// MeanUtil is the average utilization across stages and time.
	MeanUtil float64
	// PhaseSplit is the virtual time when the last prefill tokens were
	// scheduled (the boundary between the two phases).
	PhaseSplit time.Duration
	// UtilPhase1 / UtilPhase2 are mean utilizations before/after the split.
	UtilPhase1 float64
	UtilPhase2 float64
	// Tokens is the per-iteration batched token series with timestamps.
	Tokens *stats.TimeSeries
	// TokenCV is the coefficient of variation of batched token counts.
	TokenCV        float64
	BubbleFraction float64
	// StageBusy is each stage's cumulative execute time over the run, and
	// StageBubble the matching per-stage bubble rate (idle/makespan) — the
	// paper's §3 per-stage accounting, from the engine's span recorder
	// ground truth.
	StageBusy   []time.Duration
	StageBubble []float64
}

// Fig4Utilization runs the experiment. rate controls the arrival intensity
// of the burst phase.
func Fig4Utilization(sc Scale, rate float64, sys System) (*Fig4Result, error) {
	cluster := IntraNodeL20(model.Qwen25_32B)
	items := sc.trace(workload.ShareGPT, rate)

	// A one-cell grid: Figure 4 is a single run, but routing it through
	// RunGrid keeps every experiment on the same execution path. The batch
	// log gives the token series, the span recorder the utilisation.
	var log engine.BatchLog
	rec := obs.NewRecorder(cluster.Topo.GPUs(), 0)
	runs, err := RunGrid(context.Background(), []System{sys}, sc.Workers,
		func(_ context.Context, s System) (*engine.Result, error) {
			cfg := s.config(cluster)
			cfg.Observer, cfg.Spans = log.Observer(nil), rec
			return engine.RunPipeline(cfg, items)
		})
	if err != nil {
		return nil, fmt.Errorf("experiments fig4: %w", err)
	}
	if n := rec.Dropped(); n > 0 {
		return nil, fmt.Errorf("experiments fig4: the span recorder dropped %d of %d spans", n, rec.Total())
	}
	res := runs[0]

	out := &Fig4Result{
		System:         sys.Name,
		StageUtil:      obs.Utilization(rec.Spans(), rec.Stages(), 250*time.Millisecond, res.Makespan),
		BubbleFraction: res.BubbleFraction,
		StageBusy:      res.StageBusy,
		Tokens:         stats.NewTimeSeries("batched-tokens"),
	}
	for _, busy := range res.StageBusy {
		bubble := 0.0
		if res.Makespan > 0 {
			bubble = 1 - busy.Seconds()/res.Makespan.Seconds()
		}
		out.StageBubble = append(out.StageBubble, bubble)
	}
	var phaseSplit time.Duration
	for _, b := range log.Batches {
		out.Tokens.Record(b.Time, float64(b.Prefill+b.Decode))
		if b.Prefill > 0 && b.Time > phaseSplit {
			phaseSplit = b.Time
		}
	}
	out.PhaseSplit = phaseSplit
	out.TokenCV = out.Tokens.Summary().CV()

	var all, p1, p2 []float64
	for _, ts := range out.StageUtil {
		for _, p := range ts.Points {
			all = append(all, p.V)
			if p.T <= phaseSplit {
				p1 = append(p1, p.V)
			} else {
				p2 = append(p2, p.V)
			}
		}
	}
	out.MeanUtil = stats.Mean(all)
	out.UtilPhase1 = stats.Mean(p1)
	out.UtilPhase2 = stats.Mean(p2)
	return out, nil
}

// String renders the utilization summary.
func (r *Fig4Result) String() string {
	s := fmt.Sprintf(
		"Figure 4 — %s GPU utilization (32B, 4 GPUs)\n"+
			"  mean util=%.2f  phase1(mixed)=%.2f  phase2(decode-only)=%.2f\n"+
			"  batched-token CV=%.3f  bubble fraction=%.2f  phase split at %.1fs\n",
		r.System, r.MeanUtil, r.UtilPhase1, r.UtilPhase2, r.TokenCV, r.BubbleFraction,
		r.PhaseSplit.Seconds())
	for i, busy := range r.StageBusy {
		s += fmt.Sprintf("  stage%d: busy=%.1fs bubble=%.2f\n", i, busy.Seconds(), r.StageBubble[i])
	}
	return s
}

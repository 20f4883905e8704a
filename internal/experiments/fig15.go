package experiments

import (
	"context"
	"fmt"

	"gllm/internal/model"
	"gllm/internal/workload"
)

// Fig15Row is one ablation variant's metrics (absolute and normalized to
// the full gLLM configuration).
type Fig15Row struct {
	System     string
	TTFT       float64
	TPOT       float64
	E2E        float64
	Throughput float64
	// Normalized values (gLLM = 1.0).
	NormTTFT       float64
	NormTPOT       float64
	NormE2E        float64
	NormThroughput float64
}

// Fig15Result reproduces Figure 15's ablation study (gLLM vs w/o WT, w/o
// UT, w/ CK, vLLM). Paper shapes: w/o WT trades ~10% better TTFT for much
// worse TPOT/E2EL; w/o UT degrades everything; w/ CK still beats vLLM
// (runtime advantage).
type Fig15Result struct {
	Rows []Fig15Row
}

// Fig15Ablation runs the ablation on the 32B intra-node testbed. The
// cluster memory is reduced below the headline runs' 0.9 so KV-cache
// pressure — the regime the UT term targets — materializes: the real
// systems lose device memory to activations, CUDA graphs and
// fragmentation that the simulator's weights+KV accounting does not
// charge, so an un-derated simulation would understate cache pressure.
func Fig15Ablation(sc Scale, rate float64, ds workload.Dataset) (*Fig15Result, error) {
	cluster := IntraNodeL20(model.Qwen25_32B)
	cluster.MemUtil = 0.35
	return Fig15AblationOn(cluster, sc, rate, ds)
}

// Fig15AblationOn runs the ablation on an explicit cluster. Shortened runs
// can pass a memory-constrained cluster so KV pressure (the UT term's
// raison d'être) materializes within the shrunken window, as it does
// naturally over the paper's full 128 s runs.
func Fig15AblationOn(cluster Cluster, sc Scale, rate float64, ds workload.Dataset) (*Fig15Result, error) {
	items := sc.trace(ds, rate)

	rows, err := RunGrid(context.Background(), AblationSystems(), sc.Workers,
		func(_ context.Context, sys System) (Fig15Row, error) {
			res, err := sys.Run(cluster, items)
			if err != nil {
				return Fig15Row{}, fmt.Errorf("experiments fig15: %s: %w", sys.Name, err)
			}
			return Fig15Row{
				System:     sys.Name,
				TTFT:       res.Report.TTFT.Mean,
				TPOT:       res.Report.TPOT.Mean,
				E2E:        res.Report.E2E.Mean,
				Throughput: res.Report.TokenThroughput,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	base := rows[0] // SysGLLM is first in AblationSystems
	for i := range rows {
		if base.TTFT > 0 {
			rows[i].NormTTFT = rows[i].TTFT / base.TTFT
		}
		if base.TPOT > 0 {
			rows[i].NormTPOT = rows[i].TPOT / base.TPOT
		}
		if base.E2E > 0 {
			rows[i].NormE2E = rows[i].E2E / base.E2E
		}
		if base.Throughput > 0 {
			rows[i].NormThroughput = rows[i].Throughput / base.Throughput
		}
	}
	return &Fig15Result{Rows: rows}, nil
}

// String renders the ablation table (normalized, gLLM = 1.00).
func (r *Fig15Result) String() string {
	out := "Figure 15 — ablation (normalized to gLLM; lower is better except tput)\n" +
		fmt.Sprintf("  %-11s %9s %9s %9s %9s\n", "system", "TTFT", "TPOT", "E2EL", "tput")
	for _, row := range r.Rows {
		out += fmt.Sprintf("  %-11s %9.2f %9.2f %9.2f %9.2f\n",
			row.System, row.NormTTFT, row.NormTPOT, row.NormE2E, row.NormThroughput)
	}
	return out
}

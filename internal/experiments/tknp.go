package experiments

import (
	"context"
	"fmt"

	"gllm/internal/engine"
	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/sched"
	"gllm/internal/workload"
)

// The TKNP regime sweep maps where token parallelism pays off. All four
// parallelization strategies serve the same batch x context grid on one
// 16 x A100-40G NVLink node: tensor parallelism over-shards grouped-query
// attention past the model's 8 KV heads and pays 2(n-1) ring-step latencies
// per layer; pipeline parallelism's TPOT is a serial full-weight-stream
// round trip; disaggregation idles its prefill pool during decode; TKNP
// streams weights over an 8-rank root group, shards KV by token across all
// 16 ranks, and pays one scatter+gather per layer.

// TKNP sweep testbed parameters.
const (
	// TknpGPUs is the node size (paper extension testbed: 16 GPUs, NVLink).
	TknpGPUs = 16
	// TknpRootTP is the token-parallel root group width.
	TknpRootTP = 8
)

// Default sweep grids. The paper-scale grid covers the full batch x context
// plane; the quick grid keeps its corners (including the largest cell,
// where TKNP must win) for CI.
var (
	TknpBatchesPaper = []int{8, 64, 256}
	TknpCtxsPaper    = []int{256, 2048, 8192}
	TknpBatchesQuick = []int{8, 64}
	TknpCtxsQuick    = []int{256, 8192}
)

// TknpEngines are the compared deployments, in output order.
var TknpEngines = []string{"tp", "pp", "disagg", "tknp"}

// TknpTestbed is the 16 x A100-40G NVLink node the sweep runs on, serving
// Qwen2.5-14B (8 KV heads — the GQA clamp binds at TP-16).
func TknpTestbed() Cluster {
	return Cluster{
		Model:   model.Qwen25_14B,
		GPU:     gpu.A100_40G,
		Topo:    network.IntraNode(TknpGPUs, network.NVLink),
		MemUtil: 0.9,
	}
}

// TknpRow is one (engine, batch, context) cell of the sweep.
type TknpRow struct {
	Engine string
	Batch  int
	Ctx    int
	Output int
	TTFT   float64 // mean seconds
	TPOT   float64 // mean seconds
	E2E    float64 // mean seconds
	// DecodeTput is the steady-state decode rate Batch/TPOT in tokens/s —
	// the metric the regime argument is about.
	DecodeTput float64
	Throughput float64 // (input+output) tokens/s over the makespan
}

// TknpResult holds the full sweep.
type TknpResult struct {
	Rows []TknpRow
}

// TknpRegimes sweeps every engine over the batch x context grid, output
// tokens per request fixed. Each request batch arrives at t=0 (a closed
// batch, isolating iteration cost from arrival dynamics). Cells run
// concurrently under sc.Workers with deterministic output at every worker
// count.
func TknpRegimes(sc Scale, batches, ctxs []int, output int) (*TknpResult, error) {
	if len(batches) == 0 || len(ctxs) == 0 {
		return nil, fmt.Errorf("experiments tknp: empty grid")
	}
	if output < 1 {
		return nil, fmt.Errorf("experiments tknp: output length %d", output)
	}
	c := TknpTestbed()
	type cell struct{ bi, ci, ei int }
	cells := make([]cell, 0, len(batches)*len(ctxs)*len(TknpEngines))
	for bi := range batches {
		for ci := range ctxs {
			for ei := range TknpEngines {
				cells = append(cells, cell{bi, ci, ei})
			}
		}
	}
	rows, err := RunGrid(context.Background(), cells, sc.Workers, func(_ context.Context, cl cell) (TknpRow, error) {
		batch, ctxLen, eng := batches[cl.bi], ctxs[cl.ci], TknpEngines[cl.ei]
		items := workload.Uniform(batch, ctxLen, output, 0)
		cfg := engine.Config{
			Model:     c.Model,
			GPU:       c.GPU,
			Topo:      c.Topo,
			MemUtil:   c.MemUtil,
			Scheduler: sched.NewSarathi(2048),
			Runtime:   engine.GLLMRuntime,
		}
		var res *engine.Result
		var err error
		switch eng {
		case "tp":
			res, err = engine.RunTensor(cfg, items)
		case "pp":
			res, err = engine.RunPipeline(cfg, items)
		case "disagg":
			res, err = engine.RunDisaggregated(engine.DisaggConfig{Config: cfg, PrefillGPUs: TknpGPUs / 2}, items)
		case "tknp":
			res, err = engine.RunTokenParallel(engine.TokenParallelConfig{Config: cfg, RootTP: TknpRootTP}, items)
		default:
			return TknpRow{}, fmt.Errorf("experiments tknp: unknown engine %q", eng)
		}
		if err != nil {
			return TknpRow{}, fmt.Errorf("experiments tknp: %s B=%d ctx=%d: %w", eng, batch, ctxLen, err)
		}
		row := TknpRow{
			Engine:     eng,
			Batch:      batch,
			Ctx:        ctxLen,
			Output:     output,
			TTFT:       res.Report.TTFT.Mean,
			TPOT:       res.Report.TPOT.Mean,
			E2E:        res.Report.E2E.Mean,
			Throughput: res.Report.TokenThroughput,
		}
		if row.TPOT > 0 {
			row.DecodeTput = float64(batch) / row.TPOT
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &TknpResult{Rows: rows}, nil
}

// TknpRegimesQuick runs the CI-sized corner grid (64-token outputs).
func TknpRegimesQuick(sc Scale) (*TknpResult, error) {
	return TknpRegimes(sc, TknpBatchesQuick, TknpCtxsQuick, 64)
}

// TknpRegimesPaper runs the full grid at the paper's 256-token outputs.
func TknpRegimesPaper(sc Scale) (*TknpResult, error) {
	return TknpRegimes(sc, TknpBatchesPaper, TknpCtxsPaper, 256)
}

// String renders the sweep grouped by grid cell.
func (r *TknpResult) String() string {
	out := fmt.Sprintf("TKNP regime sweep (%d x A100-40G NVLink, Qwen2.5-14B, root TP %d)\n",
		TknpGPUs, TknpRootTP)
	last := ""
	for _, row := range r.Rows {
		cell := fmt.Sprintf("B=%d ctx=%d out=%d", row.Batch, row.Ctx, row.Output)
		if cell != last {
			out += "  " + cell + ":\n"
			last = cell
		}
		out += fmt.Sprintf("    %-7s TTFT %8.3fs  TPOT %7.1fms  decode %9.1f tok/s  tput %10.1f tok/s\n",
			row.Engine, row.TTFT, row.TPOT*1e3, row.DecodeTput, row.Throughput)
	}
	return out
}

// CSV renders the sweep as machine-readable rows.
func (r *TknpResult) CSV() string {
	out := "engine,batch,ctx,output,ttft_s,tpot_s,e2el_s,decode_tok_s,throughput_tok_s\n"
	for _, row := range r.Rows {
		out += fmt.Sprintf("%s,%d,%d,%d,%g,%g,%g,%g,%g\n",
			row.Engine, row.Batch, row.Ctx, row.Output,
			row.TTFT, row.TPOT, row.E2E, row.DecodeTput, row.Throughput)
	}
	return out
}

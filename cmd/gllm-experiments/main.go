// Command gllm-experiments regenerates the paper's tables and figures on
// the simulated substrate and writes the series data under -out.
//
//	gllm-experiments -run all -scale quick
//	gllm-experiments -run fig10,fig15 -scale paper -out results/
//
// The experiment ids are the steps table below; -h lists them and an id
// that is not in the table is a usage error. The tknp sweep writes
// BENCH_tknp_regimes.json when -out is set (regenerate the committed one
// at paper scale with: make bench-tknp).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gllm/internal/experiments"
	"gllm/internal/model"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

func main() {
	var (
		run      = flag.String("run", "all", "comma-separated experiment ids: "+validIDs())
		scale    = flag.String("scale", "quick", "quick (16 s window) or paper (128 s window)")
		out      = flag.String("out", "", "directory for CSV/series output (optional)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"worker goroutines per experiment grid (1 = sequential; results are identical at any setting)")
	)
	flag.Parse()
	if err := mainErr(*run, *scale, *out, *parallel); err != nil {
		fmt.Fprintln(os.Stderr, "gllm-experiments:", err)
		os.Exit(1)
	}
}

// env is what a step needs from the command line.
type env struct {
	sc        experiments.Scale
	scaleName string
	log       io.Writer // the printed report (stdout; results/full_run.log)
	srcRoot   string    // repository root for Table 1's line count
	// save stores one artefact under its results/ name; nil (no -out)
	// discards it.
	save func(name string, data []byte) error
}

func (e env) writeCSV(name, content string) error {
	if e.save == nil {
		return nil
	}
	return e.save(name, []byte(content))
}

// validIDs lists what -run accepts, in table order.
func validIDs() string {
	ids := []string{"all"}
	for _, s := range steps {
		ids = append(ids, s.id)
	}
	return strings.Join(ids, ", ")
}

func mainErr(run, scaleName, out string, parallel int) error {
	if parallel < 1 { // not RunGrid's GOMAXPROCS default
		return fmt.Errorf("-parallel %d: want at least 1", parallel)
	}
	e := env{scaleName: scaleName, log: os.Stdout, srcRoot: "."}
	if out != "" {
		// The directory appears with the first artefact, so a usage error
		// creates nothing.
		e.save = func(name string, data []byte) error {
			if err := os.MkdirAll(out, 0o755); err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(out, name), data, 0o644)
		}
	}
	return e.run(run, parallel)
}

// run validates the scale and the comma-separated ids, then runs the
// chosen steps in table order.
func (e env) run(ids string, parallel int) error {
	switch e.scaleName {
	case "quick":
		e.sc = experiments.QuickScale()
	case "paper":
		e.sc = experiments.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q", e.scaleName)
	}
	e.sc.Workers = parallel

	known := map[string]bool{"all": true}
	for _, s := range steps {
		known[s.id] = true
	}
	want := map[string]bool{}
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(id)
		if !known[id] {
			return fmt.Errorf("unknown experiment %q (valid: %s)", id, validIDs())
		}
		want[id] = true
	}
	for _, s := range steps {
		if !want["all"] && !want[s.id] {
			continue
		}
		start := time.Now()
		fmt.Fprintf(e.log, "=== %s ===\n", s.id)
		if err := s.fn(e); err != nil {
			return fmt.Errorf("%s: %w", s.id, err)
		}
		fmt.Fprintf(e.log, "(%s took %.1fs)\n\n", s.id, time.Since(start).Seconds())
	}
	return nil
}

// steps is the one list of experiments: -run ids, their order under "all",
// the -h text and the unknown-id error all read it.
var steps = []struct {
	id string
	fn func(e env) error
}{
	{"fig1", func(e env) error {
		res, err := experiments.Fig1TokenVolatility(e.sc, 4)
		if err != nil {
			return err
		}
		fmt.Fprint(e.log, res.String())
		var csv strings.Builder
		csv.WriteString("iter,sarathi_total,gllm_total\n")
		n := len(res.Sarathi.Total)
		if len(res.GLLM.Total) > n {
			n = len(res.GLLM.Total)
		}
		for i := 0; i < n; i++ {
			s, g := "", ""
			if i < len(res.Sarathi.Total) {
				s = fmt.Sprintf("%g", res.Sarathi.Total[i])
			}
			if i < len(res.GLLM.Total) {
				g = fmt.Sprintf("%g", res.GLLM.Total[i])
			}
			fmt.Fprintf(&csv, "%d,%s,%s\n", i, s, g)
		}
		return e.writeCSV("fig01_tokens.csv", csv.String())
	}},
	{"fig4", func(e env) error {
		res, err := experiments.Fig4Utilization(e.sc, 4, experiments.SysVLLM)
		if err != nil {
			return err
		}
		fmt.Fprint(e.log, res.String())
		return e.writeCSV("fig04_tokens.csv", res.Tokens.CSV())
	}},
	{"fig10", func(e env) error {
		for _, m := range []model.Config{model.Qwen25_14B, model.Qwen25_32B} {
			for _, ds := range []workload.Dataset{workload.ShareGPT, workload.Azure} {
				rates := experiments.RatesShareGPT
				if ds.Name == "azure" {
					rates = experiments.RatesAzure
				}
				sweeps, err := experiments.Fig10(e.sc, m, ds, rates)
				if err != nil {
					return err
				}
				fmt.Fprintf(e.log, "Figure 10 — %s / %s (intra-node 4xL20)\n", m.Name, ds.Name)
				for _, sw := range sweeps {
					fmt.Fprint(e.log, sw.String())
				}
				if err := e.writeCSV(fmt.Sprintf("fig10_%s_%s.csv", m.Name, ds.Name),
					experiments.SweepsCSV(sweeps)); err != nil {
					return err
				}
			}
		}
		return nil
	}},
	{"fig11", func(e env) error {
		res, err := experiments.Fig11Distributions(e.sc.Seed, 50000)
		if err != nil {
			return err
		}
		fmt.Fprint(e.log, res.String())
		render := func(sg, az *stats.Histogram) string {
			return "sharegpt:\n" + sg.Render(40) + "azure:\n" + az.Render(40)
		}
		if err := e.writeCSV("fig11_input_hist.csv", render(res.ShareGPT.InputHist, res.Azure.InputHist)); err != nil {
			return err
		}
		return e.writeCSV("fig11_output_hist.csv", render(res.ShareGPT.OutputHist, res.Azure.OutputHist))
	}},
	{"fig12", func(e env) error {
		for _, m := range []model.Config{model.Qwen25_14B, model.Qwen25_32B, model.Llama31_100B} {
			rates := experiments.RatesAzure // cross-node axes are lower
			if m.Name == model.Llama31_100B.Name {
				rates = []float64{0.25, 0.5, 1}
			}
			sweeps, err := experiments.Fig12(e.sc, m, workload.ShareGPT, rates)
			if err != nil {
				return err
			}
			fmt.Fprintf(e.log, "Figure 12 — %s / sharegpt (4 nodes, simulated net)\n", m.Name)
			for _, sw := range sweeps {
				fmt.Fprint(e.log, sw.String())
			}
			if err := e.writeCSV(fmt.Sprintf("fig12_%s.csv", m.Name),
				experiments.SweepsCSV(sweeps)); err != nil {
				return err
			}
		}
		return nil
	}},
	{"fig13", func(e env) error {
		intra, err := experiments.Fig13Intra(e.sc)
		if err != nil {
			return err
		}
		fmt.Fprint(e.log, experiments.RenderScalability(intra, "Figure 13a — intra-node scaling (14B, L20)"))
		cross, err := experiments.Fig13Cross(e.sc)
		if err != nil {
			return err
		}
		fmt.Fprint(e.log, experiments.RenderScalability(cross, "Figure 13b — cross-node scaling (14B, A100/node)"))
		return nil
	}},
	{"fig14", func(e env) error {
		for _, ds := range []workload.Dataset{workload.ShareGPT, workload.Azure} {
			sweeps, err := experiments.Fig14(e.sc, ds, []float64{0.25, 0.5, 0.75, 1})
			if err != nil {
				return err
			}
			fmt.Fprintf(e.log, "Figure 14 — SLO attainment, Llama3.1-100B cross-node A800, %s\n", ds.Name)
			for _, sw := range sweeps {
				fmt.Fprint(e.log, sw.String())
			}
			if err := e.writeCSV(fmt.Sprintf("fig14_%s.csv", ds.Name),
				experiments.SweepsCSV(sweeps)); err != nil {
				return err
			}
		}
		return nil
	}},
	{"fig15", func(e env) error {
		res, err := experiments.Fig15Ablation(e.sc, 4, workload.ShareGPT)
		if err != nil {
			return err
		}
		fmt.Fprint(e.log, res.String())
		return nil
	}},
	{"fig16", func(e env) error {
		res, err := experiments.Fig16Sensitivity(e.sc, 4, workload.ShareGPT)
		if err != nil {
			return err
		}
		fmt.Fprint(e.log, res.String())
		return nil
	}},
	{"evolution", func(e env) error {
		res, err := experiments.SchedulingEvolution(e.sc, 4, workload.ShareGPT)
		if err != nil {
			return err
		}
		fmt.Fprint(e.log, res.String())
		return nil
	}},
	{"disagg", func(e env) error {
		res, err := experiments.DisaggRatio(e.sc, 4)
		if err != nil {
			return err
		}
		fmt.Fprint(e.log, res.String())
		return nil
	}},
	{"tknp", func(e env) error {
		run := experiments.TknpRegimesQuick
		if e.scaleName == "paper" {
			run = experiments.TknpRegimesPaper
		}
		res, err := run(e.sc)
		if err != nil {
			return err
		}
		fmt.Fprint(e.log, res.String())
		if e.save != nil {
			blob, err := tknpArtifact(res, e.scaleName)
			if err != nil {
				return err
			}
			if err := e.save("BENCH_tknp_regimes.json", blob); err != nil {
				return err
			}
		}
		return e.writeCSV("tknp_regimes.csv", res.CSV())
	}},
	{"table1", func(e env) error {
		res, err := experiments.Table1Equivalence(e.sc.Seed, 32, e.srcRoot)
		if err != nil {
			return err
		}
		fmt.Fprint(e.log, res.String())
		return nil
	}},
}

// tknpArtifact wraps the TKNP regime sweep in the repo's BENCH_*.json
// shape: what ran and how to regenerate it. It records no date or host:
// the numbers are virtual time, so they do not depend on the machine.
func tknpArtifact(res *experiments.TknpResult, scaleName string) ([]byte, error) {
	return json.MarshalIndent(struct {
		Benchmark   string                  `json:"benchmark"`
		Description string                  `json:"description"`
		Scale       string                  `json:"scale"`
		Result      *experiments.TknpResult `json:"result"`
	}{
		Benchmark: "TknpRegimes",
		Description: "Token-parallel regime sweep: TP-16, PP-16, disaggregated 8P8D and " +
			"TKNP (root TP 8) serve Qwen2.5-14B closed batches over a batch x context grid " +
			"on one 16 x A100-40G NVLink node. decode_tok_s is batch/TPOT — the steady-state " +
			"decode rate. TKNP must beat TP and PP in the largest batch x longest context " +
			"cell (regression-tested); TP over-shards the model's 8 KV heads past degree 8 " +
			"and pays 2(n-1) ring-step latencies per layer, PP streams all weights serially " +
			"per output token. Regenerate with: make bench-tknp",
		Scale:  scaleName,
		Result: res,
	}, "", "  ")
}

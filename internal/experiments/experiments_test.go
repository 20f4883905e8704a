package experiments

import (
	"strings"
	"testing"
	"time"

	"gllm/internal/model"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

func TestFig1SarathiIsNoisier(t *testing.T) {
	res, err := Fig1TokenVolatility(QuickScale(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sarathi.Total) == 0 || len(res.GLLM.Total) == 0 {
		t.Fatal("empty iteration series")
	}
	if ratio := res.VolatilityRatio(); ratio <= 1.2 {
		t.Fatalf("volatility ratio = %.2f, want sarathi clearly noisier", ratio)
	}
	if !strings.Contains(res.String(), "volatility") {
		t.Fatal("String() missing summary")
	}
}

func TestFig4UtilizationShape(t *testing.T) {
	res, err := Fig4Utilization(QuickScale(), 4, SysVLLM)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanUtil <= 0 || res.MeanUtil > 1 {
		t.Fatalf("mean util = %v", res.MeanUtil)
	}
	if res.PhaseSplit <= 0 {
		t.Fatal("no phase split detected")
	}
	// The decode-only tail exists and is not fully utilized (the paper's
	// "stable but suboptimal phase").
	if res.UtilPhase2 <= 0 || res.UtilPhase2 >= 0.95 {
		t.Fatalf("phase-2 util = %v, want suboptimal but nonzero", res.UtilPhase2)
	}
	// Sarathi's batched token counts fluctuate substantially.
	if res.TokenCV < 0.2 {
		t.Fatalf("token CV = %v, want visible fluctuation", res.TokenCV)
	}
	if len(res.StageUtil) != 4 {
		t.Fatalf("stage series = %d", len(res.StageUtil))
	}
	// Per-stage bubble accounting rides along with the aggregate fraction.
	if len(res.StageBusy) != 4 || len(res.StageBubble) != 4 {
		t.Fatalf("stage accounting = %d busy, %d bubble", len(res.StageBusy), len(res.StageBubble))
	}
	for i, b := range res.StageBubble {
		if b < 0 || b >= 1 || res.StageBusy[i] <= 0 {
			t.Fatalf("stage %d: busy=%v bubble=%v", i, res.StageBusy[i], b)
		}
	}
	if !strings.Contains(res.String(), "stage0: busy=") {
		t.Fatal("String() missing per-stage accounting")
	}
}

func TestFig10ShapesHold(t *testing.T) {
	sc := QuickScale()
	sweeps, err := Fig10(sc, model.Qwen25_14B, workload.ShareGPT, []float64{1, 6})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Sweep{}
	for _, s := range sweeps {
		byName[s.System] = s
	}
	vllm, gllm, sglang := byName["vllm"], byName["gllm"], byName["sglang"]
	if len(vllm.Points) != 2 || len(gllm.Points) != 2 || len(sglang.Points) != 2 {
		t.Fatalf("point counts wrong: %+v", sweeps)
	}
	// At the demanding rate gLLM beats vLLM on E2E latency.
	if gllm.Points[1].E2E >= vllm.Points[1].E2E {
		t.Fatalf("gllm E2E %.2f >= vllm %.2f at high rate", gllm.Points[1].E2E, vllm.Points[1].E2E)
	}
	// At the low rate intra-node TP (SGLang) delivers the best E2E latency
	// (paper finding 5).
	if sglang.Points[0].E2E >= gllm.Points[0].E2E {
		t.Fatalf("sglang E2E %.2f >= gllm %.2f at low rate", sglang.Points[0].E2E, gllm.Points[0].E2E)
	}
	// Throughput grows with offered load for every system (nobody is
	// saturated at these quick-scale rates).
	for _, s := range sweeps {
		if s.Points[1].Throughput <= s.Points[0].Throughput {
			t.Fatalf("%s throughput not increasing with rate", s.System)
		}
	}
	if !strings.Contains(vllm.String(), "TTFT") {
		t.Fatal("sweep render missing header")
	}
}

func TestFig12CrossNodeTPCollapses(t *testing.T) {
	sweeps, err := Fig12(QuickScale(), model.Qwen25_14B, workload.ShareGPT, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Sweep{}
	for _, s := range sweeps {
		byName[s.System] = s
	}
	// Cross-node, gLLM (PP) must beat SGLang (TP) on throughput and E2E.
	gl, sg := byName["gllm"].Points[0], byName["sglang"].Points[0]
	if gl.Throughput <= sg.Throughput {
		t.Fatalf("gllm tput %.1f <= sglang %.1f cross-node", gl.Throughput, sg.Throughput)
	}
	if gl.E2E >= sg.E2E {
		t.Fatalf("gllm E2E %.2f >= sglang %.2f cross-node", gl.E2E, sg.E2E)
	}
}

// TestMixtralGLLMBeatsVLLM is the mixture-of-experts model's end-to-end
// witness (EXPERIMENTS.md "Extension results"): served on 4×L20, gLLM's
// mean E2EL is at least 1.2× lower than the vLLM-like baseline's.
func TestMixtralGLLMBeatsVLLM(t *testing.T) {
	cluster := IntraNodeL20(model.Mixtral8x7B)
	items := workload.Poisson(stats.NewRNG(23), workload.ShareGPT, 4, 8*time.Second)
	vllm, err := SysVLLM.Run(cluster, items)
	if err != nil {
		t.Fatal(err)
	}
	gllm, err := SysGLLM.Run(cluster, items)
	if err != nil {
		t.Fatal(err)
	}
	v, g := vllm.Report.E2E.Mean, gllm.Report.E2E.Mean
	if g <= 0 || v < 1.2*g {
		t.Fatalf("Mixtral mean E2EL: vllm %.3f s, gllm %.3f s, want gllm ≥ 1.2× lower", v, g)
	}
	t.Logf("Mixtral mean E2EL: vllm %.3f s, gllm %.3f s (%.2f×)", v, g, v/g)
}

func TestFig11DistributionRatios(t *testing.T) {
	res, err := Fig11Distributions(9, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if res.InputRatio < 4.2 || res.InputRatio > 6.2 {
		t.Fatalf("input ratio = %.2f, want ~5.21", res.InputRatio)
	}
	if res.OutputRatio < 1.3 || res.OutputRatio > 2.0 {
		t.Fatalf("output ratio = %.2f, want ~1.66", res.OutputRatio)
	}
	if res.ShareGPT.InputHist.Total() != 30000 {
		t.Fatal("histogram sample count wrong")
	}
	if res.String() == "" {
		t.Fatal("empty render")
	}
	if _, err := Fig11Distributions(9, 0); err == nil {
		t.Fatal("zero samples accepted")
	}
}

func TestFig14SLOAttainment(t *testing.T) {
	sweeps, err := Fig14(QuickScale(), workload.ShareGPT, []float64{0.25, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Sweep{}
	for _, s := range sweeps {
		byName[s.System] = s
	}
	for _, s := range sweeps {
		for _, p := range s.Points {
			if p.SLO < 0 || p.SLO > 1 {
				t.Fatalf("%s attainment %v out of [0,1]", s.System, p.SLO)
			}
		}
	}
	// At the demanding rate gLLM sustains at least vLLM's attainment.
	if byName["gllm"].Points[1].SLO < byName["vllm"].Points[1].SLO {
		t.Fatalf("gllm SLO %.2f < vllm %.2f at high rate",
			byName["gllm"].Points[1].SLO, byName["vllm"].Points[1].SLO)
	}
}

func TestFig15AblationShapes(t *testing.T) {
	// Constrain KV memory so cache pressure (UT's target regime) appears
	// within the quick window, as it does over the paper's full runs.
	cluster := IntraNodeL20(model.Qwen25_32B)
	cluster.MemUtil = 0.315
	res, err := Fig15AblationOn(cluster, QuickScale(), 4, workload.ShareGPT)
	if err != nil {
		t.Fatal(err)
	}
	gllm, ok := res.Row("gllm")
	if !ok || gllm.NormE2E != 1 {
		t.Fatalf("gllm baseline row wrong: %+v", gllm)
	}
	noUT, ok := res.Row("gllm-no-ut")
	if !ok {
		t.Fatal("missing no-ut row")
	}
	noWT, ok := res.Row("gllm-no-wt")
	if !ok {
		t.Fatal("missing no-wt row")
	}
	ck, ok := res.Row("gllm-ck")
	if !ok {
		t.Fatal("missing ck row")
	}
	vllm, ok := res.Row("vllm")
	if !ok {
		t.Fatal("missing vllm row")
	}
	// Paper shapes: removing either throttle term hurts E2EL; the runtime
	// alone (w/ CK) still beats vLLM.
	if noUT.NormE2E <= 1.0 {
		t.Fatalf("no-UT E2E norm = %.2f, want > 1", noUT.NormE2E)
	}
	if noWT.NormTPOT <= 1.0 {
		t.Fatalf("no-WT TPOT norm = %.2f, want > 1", noWT.NormTPOT)
	}
	if ck.E2E >= vllm.E2E {
		t.Fatalf("w/CK E2E %.2f >= vLLM %.2f (runtime advantage missing)", ck.E2E, vllm.E2E)
	}
	if res.String() == "" {
		t.Fatal("empty render")
	}
}

func TestFig16SensitivityShapes(t *testing.T) {
	res, err := Fig16Sensitivity(QuickScale(), 4, workload.ShareGPT)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweeps) != 4 {
		t.Fatalf("sweeps = %d", len(res.Sweeps))
	}
	iterT, ok := res.Sweep("#T")
	if !ok {
		t.Fatal("missing #T sweep")
	}
	// Paper §4.6.1: larger #T smooths micro-batches, improving TPOT and
	// E2EL (at some prefill-rate cost).
	first, last := iterT.Points[0], iterT.Points[len(iterT.Points)-1]
	if last.TPOT > first.TPOT {
		t.Fatalf("#T=16 TPOT %.4f > #T=1 TPOT %.4f", last.TPOT, first.TPOT)
	}
	if last.E2E > first.E2E {
		t.Fatalf("#T=16 E2E %.3f > #T=1 E2E %.3f", last.E2E, first.E2E)
	}
	maxP, ok := res.Sweep("#MaxP")
	if !ok {
		t.Fatal("missing #MaxP sweep")
	}
	// Conservative #MaxP=512 must not beat the default on throughput.
	if maxP.Points[0].Throughput > maxP.Points[2].Throughput*1.02 {
		t.Fatalf("MaxP=512 tput %.1f > default %.1f", maxP.Points[0].Throughput, maxP.Points[2].Throughput)
	}
	if _, ok := res.Sweep("KVthresh"); !ok {
		t.Fatal("missing KVthresh sweep")
	}
	if res.String() == "" {
		t.Fatal("empty render")
	}
}

func TestTable1OutputEquivalence(t *testing.T) {
	res, err := Table1Equivalence(5, 24, "../..")
	if err != nil {
		t.Fatal(err)
	}
	if !res.OutputsMatch {
		t.Fatalf("outputs diverged: %016x vs %016x", res.DigestGLLM, res.DigestSarathi)
	}
	if res.LinesOfCode <= 0 {
		t.Fatalf("LoC = %d", res.LinesOfCode)
	}
	if res.PaperLoC["vLLM"] != 226874 {
		t.Fatal("paper LoC row wrong")
	}
	if !strings.Contains(res.String(), "IDENTICAL") {
		t.Fatalf("render: %s", res.String())
	}
}

func TestCountGoLines(t *testing.T) {
	withTests, err := CountGoLines("../..", true)
	if err != nil {
		t.Fatal(err)
	}
	noTests, err := CountGoLines("../..", false)
	if err != nil {
		t.Fatal(err)
	}
	if noTests <= 0 || withTests <= noTests {
		t.Fatalf("loc counts: with=%d without=%d", withTests, noTests)
	}
}

func TestScalabilityIntraNode(t *testing.T) {
	if testing.Short() {
		t.Skip("scalability sweep is slow")
	}
	points, err := Fig13Intra(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	// gLLM at 4 GPUs must out-throughput gLLM at 1 GPU.
	var one, four float64
	for _, p := range points {
		if p.System == "gllm" && p.GPUs == 1 {
			one = p.Tput
		}
		if p.System == "gllm" && p.GPUs == 4 {
			four = p.Tput
		}
	}
	if one <= 0 || four <= one {
		t.Fatalf("gllm scaling broken: 1 GPU %.1f, 4 GPUs %.1f", one, four)
	}
	if RenderScalability(points, "fig13a") == "" {
		t.Fatal("empty render")
	}
}

func TestSchedulingEvolutionLineage(t *testing.T) {
	res, err := SchedulingEvolution(QuickScale(), 4, workload.ShareGPT)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	batch, _ := res.Row("batch-level")
	orca, _ := res.Row("orca")
	sarathi, _ := res.Row("sarathi")
	gllm, _ := res.Row("gllm")
	// The lineage's headline: each generation improves end-to-end latency,
	// with gLLM best and batch-level worst.
	if gllm.E2E >= sarathi.E2E {
		t.Fatalf("gllm E2E %.2f >= sarathi %.2f", gllm.E2E, sarathi.E2E)
	}
	if sarathi.E2E >= batch.E2E {
		t.Fatalf("sarathi E2E %.2f >= batch-level %.2f", sarathi.E2E, batch.E2E)
	}
	if orca.E2E >= batch.E2E {
		t.Fatalf("orca E2E %.2f >= batch-level %.2f", orca.E2E, batch.E2E)
	}
	// gLLM has the calmest batches.
	for _, row := range []EvolutionRow{batch, orca, sarathi} {
		if gllm.TokenCV >= row.TokenCV {
			t.Fatalf("gllm token CV %.2f >= %s %.2f", gllm.TokenCV, row.Policy, row.TokenCV)
		}
	}
	if res.String() == "" {
		t.Fatal("empty render")
	}
}

func TestDisaggRatioShiftsWithWorkload(t *testing.T) {
	res, err := DisaggRatio(QuickScale(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 { // 3 mixes x (3 splits + unified)
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Decode-heavy traffic prefers fewer prefill GPUs.
	d1, _ := res.Row("disagg-1p3d", "decode-heavy")
	d3, _ := res.Row("disagg-3p1d", "decode-heavy")
	if d1.E2E >= d3.E2E {
		t.Fatalf("decode-heavy: 1P3D E2E %.2f >= 3P1D %.2f", d1.E2E, d3.E2E)
	}
	// The unified deployment is never far from the best static split —
	// without needing the per-workload tuning.
	for _, mix := range []string{"chat", "prompt-heavy", "decode-heavy"} {
		best, ok := res.Best(mix)
		if !ok {
			t.Fatalf("no rows for %s", mix)
		}
		uni, ok := res.Row("gllm-unified", mix)
		if !ok {
			t.Fatalf("no unified row for %s", mix)
		}
		if uni.Throughput < best.Throughput*0.9 {
			t.Fatalf("%s: unified tput %.1f << best %.1f (%s)", mix, uni.Throughput, best.Throughput, best.Deployment)
		}
	}
	if res.String() == "" {
		t.Fatal("empty render")
	}
}

func TestSweepCSV(t *testing.T) {
	sweeps := []Sweep{
		{System: "a", Points: []RatePoint{{Rate: 1, TTFT: 0.5, Throughput: 100}}},
		{System: "b", Points: []RatePoint{{Rate: 1, TTFT: 0.6, Throughput: 90}}},
	}
	csv := SweepsCSV(sweeps)
	if !strings.HasPrefix(csv, "system,rate,") {
		t.Fatalf("csv header: %q", csv)
	}
	if !strings.Contains(csv, "a,1,0.5") || !strings.Contains(csv, "b,1,0.6") {
		t.Fatalf("csv rows missing:\n%s", csv)
	}
	if one := sweeps[0].CSV(); !strings.Contains(one, "a,1,0.5") {
		t.Fatalf("single sweep csv:\n%s", one)
	}
}

// Row returns the named policy's row.
func (r *EvolutionResult) Row(policy string) (EvolutionRow, bool) {
	for _, row := range r.Rows {
		if row.Policy == policy {
			return row, true
		}
	}
	return EvolutionRow{}, false
}

// Row returns a specific (deployment, workload) row.
func (r *DisaggResult) Row(deployment, workloadName string) (DisaggRow, bool) {
	for _, row := range r.Rows {
		if row.Deployment == deployment && row.Workload == workloadName {
			return row, true
		}
	}
	return DisaggRow{}, false
}

// Row returns the named variant's row.
func (r *Fig15Result) Row(system string) (Fig15Row, bool) {
	for _, row := range r.Rows {
		if row.System == system {
			return row, true
		}
	}
	return Fig15Row{}, false
}

// Best returns the deployment with the highest throughput for a workload.
func (r *DisaggResult) Best(workloadName string) (DisaggRow, bool) {
	var best DisaggRow
	found := false
	for _, row := range r.Rows {
		if row.Workload != workloadName {
			continue
		}
		if !found || row.Throughput > best.Throughput {
			best = row
			found = true
		}
	}
	return best, found
}

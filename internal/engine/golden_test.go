package engine

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"gllm/internal/core"
	"gllm/internal/model"
	"gllm/internal/obs"
	"gllm/internal/sched"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// The golden cells pin everything a run can be observed to do — the Result
// field by field, every scheduled batch, the utilisation samples and the
// spans, sorted, so the order a strategy records its windows in is free —
// across the four engines, both prep paths (async residual and coupled
// driver CPU), the three disaggregation ratios, KV pressure under every
// policy, CPP + prefix cache and a cell where a batch overtakes an earlier
// one on stage 1. The digests were re-captured under the sorted span
// stream on the kernel whose stages were free-at times and whose windows
// were recorded as they ended; that kernel reproduced, to the byte, the
// four hand-written engine loops and the FIFO stage queues before it. A
// refactor of the engines must not move any of them.
//
// Beside each digest is its cell's headline, captured with it. On a
// mismatch the failure names the headline fields that moved, from what to
// what, then prints the table line to paste; only paste it for a change
// that is meant to alter what the engines simulate.
var goldens = map[string]golden{
	"pipeline/gllm/gllm":                   {"571aa2fe357d15ca2ab3165c75fad596d93ac9de26bbdf94d4d1f46cb80361a0", "requests=21 makespan=54.837095647s injections=3623 preemptions=0 ttft_p50=0.134183918s tpot_p50=0.038083225s"},
	"tensor/gllm/gllm":                     {"e9b2919c0edaa89a6039155d19f9315adeaf14621937e36118b2117b16e24476", "requests=21 makespan=24.724776106s injections=1480 preemptions=0 ttft_p50=0.088795465s tpot_p50=0.017120361s"},
	"tokenpar/gllm/gllm":                   {"29fe47ae422e7f4e8e42343534b2ea7ece9b3ee3b3131b23e98f5f8a2bc8c1c7", "requests=21 makespan=35.455773826s injections=1467 preemptions=0 ttft_p50=0.174479353s tpot_p50=0.024849614s"},
	"disagg-2p2d/gllm/gllm":                {"c343084264c17ad7e330ef53cfccbafe8e917937ae9cca087006cf3cdb46d959", "requests=21 makespan=54.570685073s injections=2405 preemptions=0 ttft_p50=0.051642528s tpot_p50=0.037682166s"},
	"pipeline/gllm/vllm":                   {"8d3eaa56ace078a144fc44038f49452e71a316ae24e07a33302eed4b1c016012", "requests=21 makespan=57.724821559s injections=3603 preemptions=0 ttft_p50=0.144856442s tpot_p50=0.040150052s"},
	"tensor/gllm/vllm":                     {"a03f6bf88f553e4e1a38b6c5afb65511940a1f8ea3c13792d2dc8eb80878ea5d", "requests=21 makespan=27.757491018s injections=1475 preemptions=0 ttft_p50=0.095110841s tpot_p50=0.019524549s"},
	"tokenpar/gllm/vllm":                   {"47f77d8d634ee2bdf4d30c9a6abeb7b18fd01adba286404e100946759f03d682", "requests=21 makespan=38.503395626s injections=1465 preemptions=0 ttft_p50=0.216178273s tpot_p50=0.027196737s"},
	"disagg-2p2d/gllm/vllm":                {"0a3d7035ad352cbcf3fcc5272e0a0a8d29ae9792f436d433932c335c40812448", "requests=21 makespan=54.570685073s injections=2405 preemptions=0 ttft_p50=0.051642528s tpot_p50=0.037682166s"},
	"pipeline/sarathi/gllm":                {"b4a375fd61ba23efa5c0734da232290be3dfe4cf9a570794ce4a6d2c821fe1e4", "requests=21 makespan=55.718704826s injections=3564 preemptions=0 ttft_p50=0.061132526s tpot_p50=0.04078253s"},
	"tensor/sarathi/gllm":                  {"f1679b763172cb1440ecbee045015a86269cfe93c7d4ea534194a26dd3b04126", "requests=21 makespan=24.846233722s injections=1474 preemptions=0 ttft_p50=0.034673875s tpot_p50=0.01746009s"},
	"tokenpar/sarathi/gllm":                {"829a60d37b5a2556746c28f95d0369fad6a1b9cfcb6b28ea29f0371bd12857f1", "requests=21 makespan=35.87449477s injections=1461 preemptions=0 ttft_p50=0.066680665s tpot_p50=0.025708253s"},
	"disagg-2p2d/sarathi/gllm":             {"c343084264c17ad7e330ef53cfccbafe8e917937ae9cca087006cf3cdb46d959", "requests=21 makespan=54.570685073s injections=2405 preemptions=0 ttft_p50=0.051642528s tpot_p50=0.037682166s"},
	"pipeline/sarathi/vllm":                {"5355dde39a459d03bf5be63e0a1081d62a11e7b789c7648b3223ac9065a38ba6", "requests=21 makespan=58.73037652s injections=2959 preemptions=0 ttft_p50=0.057342815s tpot_p50=0.042962828s"},
	"tensor/sarathi/vllm":                  {"f14188bac287fe2c079fe3023a52efe4faa6dfb8742b8e7b597ebed040735176", "requests=21 makespan=27.863217162s injections=1469 preemptions=0 ttft_p50=0.038442419s tpot_p50=0.019660731s"},
	"tokenpar/sarathi/vllm":                {"236bf71aa2b1f477f38b3a4b8732138ce4a0fe3f18ae1b606db243a1c12b111a", "requests=21 makespan=38.912137018s injections=1459 preemptions=0 ttft_p50=0.074664697s tpot_p50=0.027954109s"},
	"disagg-2p2d/sarathi/vllm":             {"0a3d7035ad352cbcf3fcc5272e0a0a8d29ae9792f436d433932c335c40812448", "requests=21 makespan=54.570685073s injections=2405 preemptions=0 ttft_p50=0.051642528s tpot_p50=0.037682166s"},
	"disagg-1p3d/nil-scheduler":            {"2fdccf84457438095c4a1280b19a59c562377c65870dba56600b402e15798057", "requests=21 makespan=54.619213968s injections=3104 preemptions=0 ttft_p50=0.05157096s tpot_p50=0.037745643s"},
	"disagg-3p1d/nil-scheduler":            {"6423224a1179ac693ccec1762de9627055e513366dd533e12b034a7887e5bbd9", "requests=21 makespan=54.76499249s injections=1471 preemptions=0 ttft_p50=0.051714096s tpot_p50=0.038035494s"},
	"pipeline/kv-pressure":                 {"3ac2bf42d1a7bcc23025dbcee8e281d08c22ad35fc88942fab60b3f54be26baf", "requests=50 makespan=3m6.901432589s injections=3451 preemptions=163 ttft_p50=17.057377728s tpot_p50=0.218180866s"},
	"pipeline/gllm-ck/kv-pressure":         {"3ac2bf42d1a7bcc23025dbcee8e281d08c22ad35fc88942fab60b3f54be26baf", "requests=50 makespan=3m6.901432589s injections=3451 preemptions=163 ttft_p50=17.057377728s tpot_p50=0.218180866s"},
	"pipeline/vllm-ve/kv-pressure":         {"38d27bbb6a381744d99c7c09eb00b2884521ce26ce730eef1df3c1159f159711", "requests=50 makespan=2m55.358871556s injections=3642 preemptions=174 ttft_p50=10.5783239365s tpot_p50=0.2217163525s"},
	"pipeline/td-pipe/kv-pressure":         {"c0bc31a9045bde0732fc6e0b2375f8d1cdc06df77b98be353fe807379029c808", "requests=50 makespan=3m8.310016237s injections=5472 preemptions=2 ttft_p50=53.911971383s tpot_p50=0.0932579365s"},
	"pipeline/orca/kv-pressure":            {"afaa635ac6a521e6d9efe426d41e55958bdf06924c95f298f7b145d4c670a88e", "requests=50 makespan=2m28.173945861s injections=1620 preemptions=20 ttft_p50=10.326886824s tpot_p50=0.131994304s"},
	"pipeline/batch-level/kv-pressure":     {"1d3a9722f079c905119f99d46b993b33ddc9cbfbfd82541c82afda428c432b79", "requests=50 makespan=2m50.538061546s injections=1620 preemptions=26 ttft_p50=38.751121839s tpot_p50=0.1281615245s"},
	"pipeline/gllm-no-wt/kv-pressure":      {"a3457e83b397201637ac82affeb801cdd2f532405720fba7b4a30126d3f10912", "requests=50 makespan=2m21.289725163s injections=3922 preemptions=5 ttft_p50=15.854232054499999s tpot_p50=0.0949715065s"},
	"pipeline/gllm-no-ut/kv-pressure":      {"e7fc2ca779e0d56efbf6a4b816dbde05927d402f74f2d2d70117612cdf88cbe0", "requests=50 makespan=2m49.915125485s injections=3772 preemptions=174 ttft_p50=17.2209737445s tpot_p50=0.179993439s"},
	"pipeline/conversations+cpp+prefix":    {"495a0fea388510372301a08f2f564ce57b5e127613a7e89cbad17f21179f0ab5", "requests=29 makespan=1m34.544271933s injections=5943 preemptions=0 ttft_p50=0.106671102s tpot_p50=0.038484906s"},
	"tokenpar/conversations+cpp+prefix":    {"20095020cb603d7d70310197313e7b272b76bf61610965a77a654a8ecc170829", "requests=29 makespan=1m38.637199386s injections=2435 preemptions=0 ttft_p50=0.279108403s tpot_p50=0.041608071s"},
	"disagg-2p2d/conversations+cpp+prefix": {"02c90513971e5438e5424d46d1614a0b13d9e101a3784ecd7bf0bc6448ae0967", "requests=29 makespan=1m34.988593273s injections=3919 preemptions=0 ttft_p50=0.26807268s tpot_p50=0.038298013s"},
	"pipeline/util-sampling":               {"079c51ed7c653318ac22181540cb1e8fa932a0b9a2834921e0af865276e0ed8c", "requests=21 makespan=54.837095647s injections=3623 preemptions=0 ttft_p50=0.134183918s tpot_p50=0.038083225s"},
	"pipeline/orca/overtaking":             {"c350ea3287d006e5b22fdea404d07d1f4b49a7c26f6fac64fae3d97f95e24923", "requests=59 makespan=1m47.522015354s injections=2925 preemptions=0 ttft_p50=14.248171862s tpot_p50=0.075075214s"},
}

// golden is a cell's committed digest and headline.
type golden struct{ digest, headline string }

// goldenCell is one pinned run. spanStages sizes the span recorder;
// utilEvery, when set, adds the recorder's utilisation series on that period.
type goldenCell struct {
	name       string
	disagg     bool
	spanStages int
	utilEvery  time.Duration
	run        func(p *goldenProbe) (*Result, error)
}

// goldenProbe is what every cell installs in its Config: the span recorder
// and the batch log.
type goldenProbe struct {
	rec *obs.Recorder
	log BatchLog
}

func (p *goldenProbe) install(c *Config) { c.Spans, c.Observer = p.rec, p.log.Observer(nil) }

func goldenCells() []goldenCell {
	base := shortTrace(1, 3, 8*time.Second)
	convs := workload.Conversations(stats.NewRNG(5),
		workload.DefaultConversationSpec(workload.ShareGPT, 2, 6*time.Second))
	pressure := workload.Poisson(stats.NewRNG(9), workload.ShareGPT, 4, 10*time.Second)

	scheds := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"gllm", func() sched.Scheduler { return sched.NewDefaultThrottle() }},
		{"sarathi", func() sched.Scheduler { return sched.NewSarathi(2048) }},
	}
	var cells []goldenCell
	for _, s := range scheds {
		for _, rt := range []RuntimeModel{GLLMRuntime, VLLMRuntime} {
			label := s.name + "/" + rt.Name
			cfg := func(p *goldenProbe) Config {
				c := testConfig(s.mk(), rt)
				p.install(&c)
				return c
			}
			cells = append(cells,
				goldenCell{name: "pipeline/" + label, spanStages: 4, run: func(p *goldenProbe) (*Result, error) {
					return RunPipeline(cfg(p), base)
				}},
				goldenCell{name: "tensor/" + label, spanStages: 1, run: func(p *goldenProbe) (*Result, error) {
					return RunTensor(cfg(p), base)
				}},
				goldenCell{name: "tokenpar/" + label, spanStages: 4, run: func(p *goldenProbe) (*Result, error) {
					return RunTokenParallel(TokenParallelConfig{Config: cfg(p), RootTP: 2}, base)
				}},
				// The disaggregated engine ignores cfg.Scheduler and charges
				// no prep: these four cells differ only in RuntimeName.
				goldenCell{name: "disagg-2p2d/" + label, disagg: true, spanStages: 4, run: func(p *goldenProbe) (*Result, error) {
					return RunDisaggregated(DisaggConfig{Config: cfg(p), PrefillGPUs: 2}, base)
				}},
			)
		}
	}
	for _, prefill := range []int{1, 3} {
		cells = append(cells, goldenCell{
			name: fmt.Sprintf("disagg-%dp%dd/nil-scheduler", prefill, 4-prefill), disagg: true, spanStages: 4,
			run: func(p *goldenProbe) (*Result, error) {
				c := testConfig(nil, GLLMRuntime)
				p.install(&c)
				return RunDisaggregated(DisaggConfig{Config: c, PrefillGPUs: prefill}, base)
			},
		})
	}
	kvPressure := func(name string, mk func() sched.Scheduler) goldenCell {
		return goldenCell{name: name, spanStages: 4, run: func(p *goldenProbe) (*Result, error) {
			c := testConfig(mk(), VLLMRuntime)
			c.Model, c.MemUtil = model.Qwen25_32B, 0.315
			p.install(&c)
			res, err := RunPipeline(c, pressure)
			if err == nil && res.Preemptions == 0 {
				err = fmt.Errorf("setup failed: no preemptions under derated memory")
			}
			return res, err
		}}
	}
	cells = append(cells, kvPressure("pipeline/kv-pressure", func() sched.Scheduler { return sched.NewSarathi(2048) }))
	// Every other policy under the same pressure, so each walk rule that
	// only KV exhaustion reaches is pinned for every caller.
	for _, name := range []string{"gllm-ck", "vllm-ve", "td-pipe", "orca", "batch-level", "gllm-no-wt", "gllm-no-ut"} {
		cells = append(cells, kvPressure("pipeline/"+name+"/kv-pressure", func() sched.Scheduler {
			s, err := sched.ByName(name, 2048, core.DefaultParams())
			if err != nil {
				panic(err)
			}
			return s
		}))
	}
	cells = append(cells,
		goldenCell{name: "pipeline/conversations+cpp+prefix", spanStages: 4, run: func(p *goldenProbe) (*Result, error) {
			c := testConfig(sched.NewDefaultThrottle(), GLLMRuntime)
			c.EnableCPP, c.EnablePrefixCache = true, true
			p.install(&c)
			return RunPipeline(c, convs)
		}},
		goldenCell{name: "tokenpar/conversations+cpp+prefix", spanStages: 4, run: func(p *goldenProbe) (*Result, error) {
			c := testConfig(sched.NewDefaultThrottle(), GLLMRuntime)
			c.EnableCPP, c.EnablePrefixCache = true, true
			p.install(&c)
			return RunTokenParallel(TokenParallelConfig{Config: c, RootTP: 1}, convs)
		}},
		// The disaggregated engine builds its pools without CPP or prefix
		// cache whatever the Config says.
		goldenCell{name: "disagg-2p2d/conversations+cpp+prefix", disagg: true, spanStages: 4, run: func(p *goldenProbe) (*Result, error) {
			c := testConfig(nil, GLLMRuntime)
			c.EnableCPP, c.EnablePrefixCache = true, true
			p.install(&c)
			return RunDisaggregated(DisaggConfig{Config: c, PrefillGPUs: 2}, convs)
		}},
		goldenCell{name: "pipeline/util-sampling", spanStages: 4, utilEvery: 500 * time.Millisecond, run: func(p *goldenProbe) (*Result, error) {
			c := testConfig(sched.NewDefaultThrottle(), GLLMRuntime)
			p.install(&c)
			return RunPipeline(c, base)
		}},
		// The kernel books stage s+1 when a batch's activations arrive, so a
		// small batch whose transfer is quicker can enter it ahead of an
		// earlier whole-prompt batch; the live driver books every stage at
		// injection and keeps injection order (DESIGN.md §9). Orca on this
		// trace is a cell where that happens.
		goldenCell{name: "pipeline/orca/overtaking", spanStages: 4, run: func(p *goldenProbe) (*Result, error) {
			s, err := sched.ByName("orca", 2048, core.DefaultParams())
			if err != nil {
				return nil, err
			}
			c := testConfig(s, GLLMRuntime)
			p.install(&c)
			res, err := RunPipeline(c, workload.Poisson(stats.NewRNG(1), workload.Azure, 2, 32*time.Second))
			if err == nil && !overtakes(p.rec.Spans(), 1) {
				err = fmt.Errorf("setup failed: no batch entered stage 1 ahead of an earlier one")
			}
			return res, err
		}},
	)
	return cells
}

// overtakes reports whether some exec span on stage starts before the exec
// span there of a batch injected earlier.
func overtakes(spans []obs.Span, stage int) bool {
	starts := make(map[int32]time.Duration)
	for _, s := range spans {
		if int(s.Stage) == stage && s.Kind == obs.KindExec {
			starts[s.Seq] = s.Start
		}
	}
	latest := time.Duration(-1)
	for seq := int32(1); seq <= int32(len(starts)); seq++ {
		start, ok := starts[seq]
		if !ok {
			continue
		}
		if start < latest {
			return true
		}
		latest = start
	}
	return false
}

// digestResult hashes every field of the run's outcome, its batch log, the
// utilisation series and the spans sorted by (stage, kind, start, seq, end,
// tokens). Floats go in by their bit patterns or through %v, which prints
// the shortest decimal that round-trips, so a one-ulp drift changes the
// digest.
func digestResult(res *Result, p *goldenProbe, c goldenCell) string {
	spans := p.rec.Spans()
	slices.SortFunc(spans, func(a, b obs.Span) int {
		return cmp.Or(cmp.Compare(a.Stage, b.Stage), cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Start, b.Start),
			cmp.Compare(a.Seq, b.Seq), cmp.Compare(a.End, b.End), cmp.Compare(a.Tokens, b.Tokens))
	})
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d|%+v|", res.SchedulerName, res.RuntimeName, res.Requests, res.Report)
	fmt.Fprintf(h, "%d|%d|%d|%v|%x|", res.Makespan, res.Preemptions, res.Injections,
		res.StageBusy, math.Float64bits(res.BubbleFraction))
	fmt.Fprintf(h, "%d|%d|%d|%d|", res.KVTransfers, res.KVTransferBytes, res.TknpCommBytes, res.KVCapacityTokens)
	fmt.Fprintf(h, "%x|", math.Float64bits(res.Collector.SLOAttainment(2*time.Second, 100*time.Millisecond)))
	if !c.disagg {
		fmt.Fprintf(h, "%v|", p.log.Batches)
	}
	if c.utilEvery > 0 {
		for _, ts := range obs.Utilization(spans, p.rec.Stages(), c.utilEvery, res.Makespan) {
			fmt.Fprintf(h, "%s:%v|", ts.Name, ts.Points)
		}
	}
	fmt.Fprintf(h, "%d:%v", p.rec.Dropped(), spans)
	return hex.EncodeToString(h.Sum(nil))
}

// headline is the line of a cell's outcome a reader checks first.
func headline(res *Result) string {
	return fmt.Sprintf("requests=%d makespan=%v injections=%d preemptions=%d ttft_p50=%vs tpot_p50=%vs",
		res.Requests, res.Makespan, res.Injections, res.Preemptions, res.Report.TTFT.P50, res.Report.TPOT.P50)
}

// moved lists the headline fields that differ between want and got.
func moved(want, got string) string {
	w, g := strings.Fields(want), strings.Fields(got)
	if len(w) != len(g) {
		return fmt.Sprintf("headline %q -> %q", want, got)
	}
	var out []string
	for i := range w {
		if w[i] != g[i] {
			name, from, _ := strings.Cut(w[i], "=")
			_, to, _ := strings.Cut(g[i], "=")
			out = append(out, fmt.Sprintf("%s %s -> %s", name, from, to))
		}
	}
	if out == nil {
		return "no headline field moved"
	}
	return strings.Join(out, ", ")
}

func TestGoldenEngineDigests(t *testing.T) {
	cells := goldenCells()
	if len(cells) != len(goldens) {
		t.Errorf("%d cells, %d committed digests", len(cells), len(goldens))
	}
	for _, c := range cells {
		p := &goldenProbe{rec: obs.NewRecorder(c.spanStages, 0)}
		res, err := c.run(p)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if p.rec.Dropped() != 0 {
			t.Errorf("%s: span ring dropped %d spans; shorten the trace", c.name, p.rec.Dropped())
		}
		want := goldens[c.name]
		if got := (golden{digestResult(res, p, c), headline(res)}); got != want {
			t.Errorf("%s: digest moved (%s); table line is now\n\t%q: {%q, %q},",
				c.name, moved(want.headline, got.headline), c.name, got.digest, got.headline)
		}
	}
}

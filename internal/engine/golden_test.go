package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
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
// ordered span stream — across the four engines, both prep paths (async
// residual and coupled driver CPU), the three disaggregation ratios, KV
// pressure, and CPP + prefix cache. The digests were captured on the four
// hand-written engine loops that preceded the shared kernel (kernel.go),
// when the kernel itself kept the batch list and sampled utilisation; the
// batch log and obs.Utilization reproduce both to the byte. A refactor of
// the engines must not move any of them.
// The seven per-policy kv-pressure cells came later, captured before the
// pool's five batch builders became one prefill and one decode walk; only
// vllm-ve's moved then, because its walk began evicting younger KV holders
// for a blocked continuation (196 → 174 preemptions, DESIGN.md §8).
//
// The orca overtaking cell came later still, captured on the FIFO job
// queues that stood in for the stages before they became free-at times.
//
// On a mismatch the failure prints the table line to paste; only do that
// for a change that is meant to alter what the engines simulate.
var goldenDigests = map[string]string{
	"pipeline/gllm/gllm":                   "4eba4cde3b4d934472806df50daa8cffb0799468ec89474e911a0e2d51f6f5e6",
	"tensor/gllm/gllm":                     "38dd6d690ed57f8dd49346b528eb921ad1a974a7e784422452af075ed5272fce",
	"tokenpar/gllm/gllm":                   "31db96a537add08ff843c4d2396b69a7247a6c9e723f6b8402224c8ed25092ea",
	"disagg-2p2d/gllm/gllm":                "7b6166fa809f55a2b0c47d62007a573f44f2c9e1696edb844774e59831a14f2d",
	"pipeline/gllm/vllm":                   "22941904d33f8fb94706275903ef02a50e2dd794aa7e5442767941d1c3ec1189",
	"tensor/gllm/vllm":                     "1e56cb4167967c80317829d9fd94c272c46bb52e75fe28a658d34ef1cba1907b",
	"tokenpar/gllm/vllm":                   "4fbc4d18fe3db81d53256a53cadcb7ffbf18ab0db95ad621c3e024464d7a72ba",
	"disagg-2p2d/gllm/vllm":                "3a3c3a9f2141ff4bf9678fe2384da0aa1630233a3620c3e57f59290beb005190",
	"pipeline/sarathi/gllm":                "7ed9b14286a293b764f7681b22fb8f89c9be36e4e86a3e8fce57c39e3057ebe9",
	"tensor/sarathi/gllm":                  "a56e3e11525a9881985b82260e20e1562326f62d875348d6c1f9938ff87ee7d1",
	"tokenpar/sarathi/gllm":                "71f48c67a2192eea42025d632c727b3fdbe96311583ef4445e097b2e12afa2be",
	"disagg-2p2d/sarathi/gllm":             "7b6166fa809f55a2b0c47d62007a573f44f2c9e1696edb844774e59831a14f2d",
	"pipeline/sarathi/vllm":                "b8f8f0395a46fded80bbcc4e8bda29c0f3810c2f2a35bd5b33110ef4f629b1aa",
	"tensor/sarathi/vllm":                  "0dc3dee02ecfba7d48099306b9459d48979326b84a04501dd3e1836c35fdd32d",
	"tokenpar/sarathi/vllm":                "b6b89e43bf945a8b1cd9c3b4a89600fb24b7e29527f2b3f2de3de05ab7cf7806",
	"disagg-2p2d/sarathi/vllm":             "3a3c3a9f2141ff4bf9678fe2384da0aa1630233a3620c3e57f59290beb005190",
	"disagg-1p3d/nil-scheduler":            "cd2ec24d2c1833cbe0de81da3d1f1eff81d369872d5245104e6d3eb0989c9475",
	"disagg-3p1d/nil-scheduler":            "86ed2b357e12704a0b968827b6eb37140bb82bd203ba0702d3dac3f1eb3809dd",
	"pipeline/kv-pressure":                 "b286f8179c25a26cde91c2160c28e04dd6d97c4de81f44fd8c7ca045fbc964c8",
	"pipeline/gllm-ck/kv-pressure":         "b286f8179c25a26cde91c2160c28e04dd6d97c4de81f44fd8c7ca045fbc964c8",
	"pipeline/vllm-ve/kv-pressure":         "3ea7e97d2b27dd5dd4caeaaaf206a97c092735d978dc5622f866e230717fd4d7",
	"pipeline/td-pipe/kv-pressure":         "498bbd11c66803ddb281dc96da2bd26c0faa39363a1d9db79c3197cf61cec49a",
	"pipeline/orca/kv-pressure":            "b951cdc042b6919dee0bcb780c95598a5ccc363568a8b1874fc604f4b86df329",
	"pipeline/batch-level/kv-pressure":     "d34c497d92f5265e489c207c66babc8ee26507d7396031d4bf654abbf14febb5",
	"pipeline/gllm-no-wt/kv-pressure":      "6ca8c771106b83149f377c16c8da8809cf00fb58af7036888ce1f474384d907a",
	"pipeline/gllm-no-ut/kv-pressure":      "37c7a70d7c2b0741fcb48ece2ec0809dd92bbfd7ae5c7152aed5a0a242064845",
	"pipeline/conversations+cpp+prefix":    "84ead69176bc8911244c180efa69a956e69836a5d4cd021b1298524a0aa2b8df",
	"tokenpar/conversations+cpp+prefix":    "147375df6f036ec66bcece3530cb74b64b8aa2339893f5c85cdf9c583b6985d3",
	"disagg-2p2d/conversations+cpp+prefix": "359d22db725ae05333c4a1a8931e975364ebad2e3c790931e880c57b318e21d2",
	"pipeline/util-sampling":               "f67cb42111290995570329b563d09f9683cb64fadaa48664529c9dd30c76f66f",
	"pipeline/orca/overtaking":             "35634690e83e0877e52e8ffbd53a4958cc74fb953a620c9e97a66faec3aa6c78",
}

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
// utilisation series and the span stream. Floats go in by their bit patterns
// or through %v, which prints the shortest decimal that round-trips, so a
// one-ulp drift changes the digest.
func digestResult(res *Result, p *goldenProbe, c goldenCell) string {
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
		for _, ts := range obs.Utilization(p.rec.Spans(), p.rec.Stages(), c.utilEvery, res.Makespan) {
			fmt.Fprintf(h, "%s:%v|", ts.Name, ts.Points)
		}
	}
	fmt.Fprintf(h, "%d:%v", p.rec.Dropped(), p.rec.Spans())
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenEngineDigests(t *testing.T) {
	cells := goldenCells()
	if len(cells) != len(goldenDigests) {
		t.Errorf("%d cells, %d committed digests", len(cells), len(goldenDigests))
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
		if got := digestResult(res, p, c); got != goldenDigests[c.name] {
			t.Errorf("digest moved; table line is now\n\t%q: %q,", c.name, got)
		}
	}
}

// Package experiments reproduces every table and figure of the gLLM
// paper's evaluation (§4) on the simulated substrate: Figure 1 (token
// volatility), Figure 4 (GPU utilization), Figures 10/12 (latency and
// throughput, intra- and cross-node), Figure 11 (workload distributions),
// Figure 13 (scalability), Figure 14 (SLO attainment), Figure 15
// (ablation), Figure 16 (sensitivity) and Table 1 (LoC / output quality).
//
// Each experiment is deterministic given its seed and returns a typed
// result with a String() rendering matching the paper's rows/series.
package experiments

import (
	"fmt"
	"time"

	"gllm/internal/core"
	"gllm/internal/engine"
	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/sched"
	"gllm/internal/workload"
)

// Cluster describes the hardware deployment an experiment runs on.
type Cluster struct {
	Model   model.Config
	GPU     gpu.Spec
	Topo    network.Topology
	MemUtil float64
}

// Paper testbeds (§4.1).
var (
	// IntraNodeL20 is 1 node with 4 x L20 over PCIe.
	IntraNodeL20 = func(m model.Config) Cluster {
		return Cluster{Model: m, GPU: gpu.L20, Topo: network.IntraNode(4, network.PCIe), MemUtil: 0.9}
	}
	// CrossNodeA100 is 4 nodes x 1 A100 over the 73.28 Gbps simulated net.
	CrossNodeA100 = func(m model.Config) Cluster {
		return Cluster{Model: m, GPU: gpu.A100_40G, Topo: network.CrossNode(4, 1, network.PCIe, network.SimulatedNet), MemUtil: 0.9}
	}
	// CrossNodeA800 is 4 nodes x 1 A800 over the simulated net (100B model).
	CrossNodeA800 = func(m model.Config) Cluster {
		return Cluster{Model: m, GPU: gpu.A800_80G, Topo: network.CrossNode(4, 1, network.PCIe, network.SimulatedNet), MemUtil: 0.9}
	}
)

// ChatLite is a short-turn chat corpus for cluster-scale runs: prompts and
// outputs an order of magnitude shorter than ShareGPT so a synthetic day
// of millions of requests replays in minutes of wall clock. The shape
// (log-normal, multi-turn accumulation) matches the full corpora; only the
// scale differs.
var ChatLite = workload.Dataset{
	Name: "chatlite",
	InMu: 4.0, InSigma: 0.8,
	OutMu: 2.4, OutSigma: 0.6,
	InMin: 8, InMax: 512,
	OutMin: 2, OutMax: 64,
}

// System is one serving system under comparison.
type System struct {
	Name string
	// NewScheduler builds a fresh scheduler per run (schedulers are
	// stateless today, but fresh instances keep runs independent).
	NewScheduler func() sched.Scheduler
	Runtime      engine.RuntimeModel
	// Tensor selects the tensor-parallel engine (SGLang); default is
	// pipeline parallelism.
	Tensor bool
}

// The paper's comparison systems (§4.1 "Schemes"). All baselines use
// Sarathi-Serve scheduling with a 2048-token budget.
var (
	SysVLLM = System{
		Name:         "vllm",
		NewScheduler: func() sched.Scheduler { return sched.NewSarathi(2048) },
		Runtime:      engine.VLLMRuntime,
	}
	SysSGLang = System{
		Name:         "sglang",
		NewScheduler: func() sched.Scheduler { return sched.NewSarathi(2048) },
		Runtime:      engine.SGLangRuntime,
		Tensor:       true,
	}
	SysGLLM = System{
		Name:         "gllm",
		NewScheduler: func() sched.Scheduler { return sched.NewDefaultThrottle() },
		Runtime:      engine.GLLMRuntime,
	}
	// Ablations (§4.5).
	SysGLLMNoWT = System{
		Name:         "gllm-no-wt",
		NewScheduler: func() sched.Scheduler { return sched.NewThrottle(core.DefaultParams(), core.VariantNoWT) },
		Runtime:      engine.GLLMRuntime,
	}
	SysGLLMNoUT = System{
		Name:         "gllm-no-ut",
		NewScheduler: func() sched.Scheduler { return sched.NewThrottle(core.DefaultParams(), core.VariantNoUT) },
		Runtime:      engine.GLLMRuntime,
	}
	SysGLLMCK = System{
		Name:         "gllm-ck",
		NewScheduler: func() sched.Scheduler { return sched.NewSarathi(2048) },
		Runtime:      engine.GLLMRuntime,
	}
)

// MainSystems are the three headline systems of Figures 10, 12 and 13.
func MainSystems() []System { return []System{SysVLLM, SysSGLang, SysGLLM} }

// AblationSystems are the Figure 15 variants.
func AblationSystems() []System {
	return []System{SysGLLM, SysGLLMNoWT, SysGLLMNoUT, SysGLLMCK, SysVLLM}
}

// config assembles an engine configuration for a system on a cluster.
func (s System) config(c Cluster) engine.Config {
	return engine.Config{
		Model:     c.Model,
		GPU:       c.GPU,
		Topo:      c.Topo,
		MemUtil:   c.MemUtil,
		Scheduler: s.NewScheduler(),
		Runtime:   s.Runtime,
	}
}

// Run executes the system on the cluster over the trace.
func (s System) Run(c Cluster, items []workload.Item) (*engine.Result, error) {
	cfg := s.config(c)
	if s.Tensor {
		return engine.RunTensor(cfg, items)
	}
	return engine.RunPipeline(cfg, items)
}

// Scale controls experiment size so the suite runs both as quick tests and
// as the full reproduction.
type Scale struct {
	// Window is the request send window (paper: 128 s).
	Window time.Duration
	// Seed drives workload synthesis.
	Seed uint64
	// Workers bounds how many grid cells an experiment may simulate
	// concurrently (see RunGrid): 0 means runtime.GOMAXPROCS(0), 1 forces
	// sequential execution. Results are identical at every setting.
	Workers int
}

// QuickScale is a fast configuration for tests and CI.
func QuickScale() Scale { return Scale{Window: 16 * time.Second, Seed: 20250704} }

// PaperScale matches the paper's 128 s send window.
func PaperScale() Scale { return Scale{Window: 128 * time.Second, Seed: 20250704} }

// RatePoint is one (request rate → metrics) sample of a sweep.
type RatePoint struct {
	Rate        float64
	TTFT        float64 // mean seconds
	TPOT        float64 // mean seconds
	E2E         float64 // mean seconds
	Throughput  float64 // (input+output) tokens/s over the makespan
	SLO         float64 // attainment under the experiment's SLO, if set
	Preemptions int
}

// Sweep holds one system's rate sweep.
type Sweep struct {
	System string
	Points []RatePoint
}

// String renders the sweep as a table.
func (s Sweep) String() string {
	out := fmt.Sprintf("%s:\n  %8s %10s %10s %10s %12s %6s\n", s.System,
		"rate", "TTFT(s)", "TPOT(ms)", "E2EL(s)", "tput(tok/s)", "SLO%")
	for _, p := range s.Points {
		out += fmt.Sprintf("  %8.2f %10.3f %10.1f %10.2f %12.1f %6.1f\n",
			p.Rate, p.TTFT, p.TPOT*1e3, p.E2E, p.Throughput, p.SLO*100)
	}
	return out
}

// CSV renders the sweep as machine-readable rows.
func (s Sweep) CSV() string {
	out := "system,rate,ttft_s,tpot_s,e2el_s,throughput_tok_s,slo,preemptions\n"
	for _, p := range s.Points {
		out += fmt.Sprintf("%s,%g,%g,%g,%g,%g,%g,%d\n",
			s.System, p.Rate, p.TTFT, p.TPOT, p.E2E, p.Throughput, p.SLO, p.Preemptions)
	}
	return out
}

// SweepsCSV concatenates several systems' sweeps under one header.
func SweepsCSV(sweeps []Sweep) string {
	out := "system,rate,ttft_s,tpot_s,e2el_s,throughput_tok_s,slo,preemptions\n"
	for _, s := range sweeps {
		for _, p := range s.Points {
			out += fmt.Sprintf("%s,%g,%g,%g,%g,%g,%g,%d\n",
				s.System, p.Rate, p.TTFT, p.TPOT, p.E2E, p.Throughput, p.SLO, p.Preemptions)
		}
	}
	return out
}

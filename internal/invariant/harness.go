package invariant

import (
	"fmt"
	"time"

	"gllm/internal/core"
	"gllm/internal/engine"
	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/sched"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// The property harness and the live runtime's checked tests run a
// deliberately tiny deployment: a toy model on a 1 MiB GPU gives a KV cache
// of a few thousand tokens, so randomized workloads exercise KV exhaustion,
// preemption and recompute paths within milliseconds of virtual time
// instead of hours.

// HarnessModel is the toy model the harness deploys.
func HarnessModel() model.Config {
	return model.Config{
		Name:             "invariant-tiny",
		NumLayers:        4,
		HiddenSize:       64,
		NumHeads:         4,
		NumKVHeads:       2,
		HeadDim:          16,
		IntermediateSize: 128,
		VocabSize:        512,
		DTypeBytes:       2,
	}
}

// HarnessGPU is the toy device the harness deploys on.
func HarnessGPU() gpu.Spec {
	return gpu.Spec{
		Name:           "sim-1MiB",
		PeakFLOPS:      1e12,
		MemBandwidth:   1e11,
		MemoryBytes:    1 << 20,
		KernelOverhead: 5 * time.Microsecond,
	}
}

// Combo names one engine × scheduler cell of the property sweep.
type Combo struct {
	// Engine is "pipeline", "tensor", "disagg" or "tokenpar".
	Engine string
	// Scheduler is a sched.ByName policy. Ignored when Make is set (and by
	// the disaggregated engine, which fixes Sarathi per replica).
	Scheduler string
	// Make overrides Scheduler with a custom factory — the mutation
	// self-tests inject broken scheduler doubles here. A fresh scheduler is
	// built per run so shrinking re-runs stay independent.
	Make func() sched.Scheduler

	CPP         bool
	PrefixCache bool
}

// String implements fmt.Stringer.
func (c Combo) String() string {
	name := c.Scheduler
	if c.Make != nil {
		name = c.Make().Name()
	}
	return fmt.Sprintf("%s/%s", c.Engine, name)
}

func (c Combo) scheduler() (sched.Scheduler, error) {
	if c.Make != nil {
		return c.Make(), nil
	}
	return sched.ByName(c.Scheduler, 512, core.DefaultParams())
}

// RunCombo drives one workload trace through one combo under full invariant
// checking and returns the audited cycle count plus the first violation (or
// other engine failure). Panics from the model layer are converted to
// errors so the shrinker can probe candidate traces aggressively.
func RunCombo(c Combo, items []workload.Item) (cycles int64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	s, err := c.scheduler()
	if err != nil {
		return 0, err
	}
	col := NewCollector()
	cfg := engine.Config{
		Model:             HarnessModel(),
		GPU:               HarnessGPU(),
		Topo:              network.IntraNode(4, network.PCIe),
		MemUtil:           0.5,
		Scheduler:         s,
		Runtime:           engine.GLLMRuntime,
		Observer:          col.Observer,
		EnableCPP:         c.CPP,
		EnablePrefixCache: c.PrefixCache,
	}
	switch c.Engine {
	case "pipeline":
		_, err = engine.RunPipeline(cfg, items)
	case "tensor":
		_, err = engine.RunTensor(cfg, items)
	case "disagg":
		_, err = engine.RunDisaggregated(engine.DisaggConfig{Config: cfg, PrefillGPUs: 2}, items)
	case "tokenpar":
		_, err = engine.RunTokenParallel(engine.TokenParallelConfig{Config: cfg, RootTP: 2}, items)
	default:
		return 0, fmt.Errorf("invariant: unknown engine %q", c.Engine)
	}
	cycles = col.Cycles()
	if err == nil {
		// Engines abort on the first violation; a clean return still gets a
		// final cross-check.
		err = col.Err()
	}
	return cycles, err
}

// HarnessConfig scales the property sweep.
type HarnessConfig struct {
	Seed uint64
	// Requests per combo (default 200).
	Requests int
	// Engines to cross (default pipeline, tensor, disagg, tokenpar).
	Engines []string
	// Schedulers to cross (default: every sched.ByName policy).
	Schedulers []string
	// MaxPrompt / MaxOutput cap synthesized request sizes (defaults 96/48 —
	// small enough to fit every engine's toy KV, large enough to force
	// chunking and preemption under load).
	MaxPrompt int
	MaxOutput int

	CPP         bool
	PrefixCache bool
}

func (hc *HarnessConfig) defaults() {
	if hc.Requests == 0 {
		hc.Requests = 200
	}
	if len(hc.Engines) == 0 {
		hc.Engines = []string{"pipeline", "tensor", "disagg", "tokenpar"}
	}
	if len(hc.Schedulers) == 0 {
		hc.Schedulers = []string{
			"gllm", "gllm-no-wt", "gllm-no-ut",
			"sarathi", "vllm-ve", "td-pipe", "orca", "batch-level",
		}
	}
	if hc.MaxPrompt == 0 {
		hc.MaxPrompt = 96
	}
	if hc.MaxOutput == 0 {
		hc.MaxOutput = 48
	}
}

// Failure is one failed combo with its shrunken reproducer.
type Failure struct {
	Combo      Combo
	Err        error
	Reproducer []workload.Item
}

// Report aggregates one property sweep.
type Report struct {
	Combos   int
	Cycles   int64
	Failures []Failure
}

// Workload synthesizes a bursty trace: batches of simultaneous arrivals
// separated by exponential gaps, prompt/output lengths uniform. Bursts are
// what pressure the KV cache into eviction and what make FIFO violations
// observable.
func Workload(rng *stats.RNG, n, maxPrompt, maxOutput int) []workload.Item {
	items := make([]workload.Item, 0, n)
	var t time.Duration
	for len(items) < n {
		burst := 1 + rng.Intn(8)
		for j := 0; j < burst && len(items) < n; j++ {
			items = append(items, workload.Item{
				Arrival:   t,
				PromptLen: 1 + rng.Intn(maxPrompt),
				OutputLen: 1 + rng.Intn(maxOutput),
			})
		}
		t += time.Duration(rng.Exp(4) * float64(time.Second))
	}
	return items
}

// Run executes the full property sweep: every engine × scheduler combo gets
// its own seeded workload, and each failure is shrunk to a minimal
// reproducing trace. Deterministic given cfg.Seed.
func Run(hc HarnessConfig) Report {
	hc.defaults()
	rng := stats.NewRNG(hc.Seed)
	var rep Report
	for _, eng := range hc.Engines {
		for _, sn := range hc.Schedulers {
			if eng == "disagg" && sn != "sarathi" {
				continue // the disaggregated engine fixes its replica policy
			}
			combo := Combo{Engine: eng, Scheduler: sn, CPP: hc.CPP, PrefixCache: hc.PrefixCache}
			items := Workload(rng.Split(), hc.Requests, hc.MaxPrompt, hc.MaxOutput)
			cycles, err := RunCombo(combo, items)
			rep.Combos++
			rep.Cycles += cycles
			if err != nil {
				rep.Failures = append(rep.Failures, Failure{
					Combo: combo,
					Err:   err,
					Reproducer: Shrink(items, func(cand []workload.Item) bool {
						_, e := RunCombo(combo, cand)
						return sameFailure(err, e)
					}),
				})
			}
		}
	}
	return rep
}

// sameFailure reports whether e reproduces the original failure: the same
// invariant for violations, any failure otherwise.
func sameFailure(orig, e error) bool {
	if e == nil {
		return false
	}
	ov, ok := orig.(Violation)
	if !ok {
		return true
	}
	ev, ok := e.(Violation)
	return ok && ev.Invariant == ov.Invariant
}

package engine

import (
	"errors"
	"math"
	"testing"

	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/sched"
	"gllm/internal/workload"
)

func tinyCfg(m model.Config, gpus int) Config {
	return Config{
		Model:     m,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(gpus, network.PCIe),
		MemUtil:   0.9,
		Scheduler: sched.NewSarathi(2048),
		Runtime:   VLLMRuntime,
	}
}

func TestRunPipelineModelDoesNotFit(t *testing.T) {
	// 100B of bf16 weights on a single L20 cannot leave KV capacity.
	_, err := RunPipeline(tinyCfg(model.Llama31_100B, 1), []workload.Item{{PromptLen: 8, OutputLen: 8}})
	if err == nil {
		t.Fatal("oversized model accepted")
	}
	if !errors.Is(err, ErrModelDoesNotFit) {
		t.Fatalf("error not ErrModelDoesNotFit: %v", err)
	}
}

func TestRunTensorModelDoesNotFit(t *testing.T) {
	_, err := RunTensor(tinyCfg(model.Llama31_100B, 1), []workload.Item{{PromptLen: 8, OutputLen: 8}})
	if err == nil {
		t.Fatal("oversized model accepted under TP")
	}
	if !errors.Is(err, ErrModelDoesNotFit) {
		t.Fatalf("error not ErrModelDoesNotFit: %v", err)
	}
}

func TestOversizedRequestIsCapacityError(t *testing.T) {
	// The model fits, but one request exceeds the whole KV capacity: same
	// capacity class, same sentinel, on every engine — also when its lengths
	// sum past math.MaxInt, which once wrapped negative and passed.
	cfg := tinyCfg(model.Qwen25_14B, 4)
	for _, huge := range [][]workload.Item{
		{{PromptLen: 1 << 24, OutputLen: 8}},
		{{PromptLen: math.MaxInt, OutputLen: 1}},
		{{PromptLen: 8, OutputLen: math.MaxInt}},
	} {
		for _, tc := range []struct {
			engine string
			run    func() (*Result, error)
		}{
			{"pipeline", func() (*Result, error) { return RunPipeline(cfg, huge) }},
			{"tensor", func() (*Result, error) { return RunTensor(cfg, huge) }},
			{"tokenpar", func() (*Result, error) { return RunTokenParallel(TokenParallelConfig{Config: cfg, RootTP: 2}, huge) }},
			{"disagg", func() (*Result, error) { return RunDisaggregated(DisaggConfig{Config: cfg, PrefillGPUs: 2}, huge) }},
		} {
			_, err := tc.run()
			if err == nil {
				t.Fatalf("%s: oversized request %+v accepted", tc.engine, huge[0])
			}
			if !errors.Is(err, ErrModelDoesNotFit) {
				t.Fatalf("%s: %+v: error not ErrModelDoesNotFit: %v", tc.engine, huge[0], err)
			}
		}
	}
}

func TestConfigErrorIsNotCapacityError(t *testing.T) {
	cfg := tinyCfg(model.Qwen25_14B, 4)
	cfg.MemUtil = 1.5
	_, err := RunPipeline(cfg, []workload.Item{{PromptLen: 8, OutputLen: 8}})
	if err == nil {
		t.Fatal("invalid MemUtil accepted")
	}
	if errors.Is(err, ErrModelDoesNotFit) {
		t.Fatalf("config error mislabeled as capacity error: %v", err)
	}
}

// A span recorder with fewer lanes than the strategy records on is a config
// error before the run starts, not a panic mid-run ("obs: stage 2 out of 2").
// Each engine needs one lane per rank it records on: the whole PP-4 chain,
// every TKNP rank, both disaggregated replicas; the TP engine is one fused
// lane, so any recorder is deep enough for it.
func TestUndersizedSpanRecorderRejected(t *testing.T) {
	items := []workload.Item{{PromptLen: 64, OutputLen: 4}}
	for _, tc := range []struct {
		engine string
		lanes  int
		run    func(Config) (*Result, error)
	}{
		{"pipeline", 4, func(c Config) (*Result, error) { return RunPipeline(c, items) }},
		{"tensor", 1, func(c Config) (*Result, error) { return RunTensor(c, items) }},
		{"tokenpar", 4, func(c Config) (*Result, error) {
			return RunTokenParallel(TokenParallelConfig{Config: c, RootTP: 2}, items)
		}},
		{"disagg", 4, func(c Config) (*Result, error) {
			return RunDisaggregated(DisaggConfig{Config: c, PrefillGPUs: 2}, items)
		}},
	} {
		for stages := 1; stages <= tc.lanes; stages++ {
			cfg := tinyCfg(model.Qwen25_14B, 4)
			cfg.Spans = obs.NewRecorder(stages, 0)
			_, err := tc.run(cfg)
			if stages < tc.lanes && err == nil {
				t.Errorf("%s: a %d-stage recorder accepted, want %d", tc.engine, stages, tc.lanes)
			}
			if stages == tc.lanes && err != nil {
				t.Errorf("%s: a %d-stage recorder: %v", tc.engine, stages, err)
			}
		}
	}
}

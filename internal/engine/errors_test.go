package engine

import (
	"errors"
	"testing"

	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
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
	// capacity class, same sentinel, on every engine.
	cfg := tinyCfg(model.Qwen25_14B, 4)
	huge := []workload.Item{{PromptLen: 1 << 24, OutputLen: 8}}
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
			t.Fatalf("%s: oversized request accepted", tc.engine)
		}
		if !errors.Is(err, ErrModelDoesNotFit) {
			t.Fatalf("%s: error not ErrModelDoesNotFit: %v", tc.engine, err)
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

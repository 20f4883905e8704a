package main

import (
	"io"
	"log/slog"
	"testing"
)

func TestBuildClusterRejectsBadPolicy(t *testing.T) {
	o := clusterOptions{replicas: 1, policy: "nope", modelPath: "Qwen2.5-14B",
		pp: 2, gpuName: "L20-48GB", memUtil: 0.9, schedName: "gllm", budget: 2048}
	if _, _, err := buildCluster(o, slog.New(slog.NewTextHandler(io.Discard, nil))); err == nil {
		t.Fatal("unknown policy must fail")
	}
}

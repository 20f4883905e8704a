package main

import (
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"gllm/internal/cluster"
)

func TestBuildClusterRejectsBadPolicy(t *testing.T) {
	o := clusterOptions{replicas: 1, policy: "nope", modelPath: "Qwen2.5-14B",
		pp: 2, gpuName: "L20-48GB", memUtil: 0.9, schedName: "gllm", budget: 2048}
	if _, _, err := buildCluster(o, slog.New(slog.NewTextHandler(io.Discard, nil))); err == nil {
		t.Fatal("unknown policy must fail")
	}
}

// A flag value that used to panic (-pp 0, -probe-interval -1s), serve
// nothing but 429s (-replicas 0 alone), answer with a nil-wrapping 400
// (-retry-attempts -3) or mark a replica down without counting the trip
// (-probe-failures -1) fails run before it listens, with the one line main
// prints before it exits 1.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*clusterOptions)
		want   string
	}{
		{"pp 0", func(o *clusterOptions) { o.pp = 0 }, "-pp 0"},
		{"pp -1", func(o *clusterOptions) { o.pp = -1 }, "-pp -1"},
		{"replicas -1", func(o *clusterOptions) { o.replicas = -1 }, "-replicas -1"},
		{"replicas 0", func(o *clusterOptions) { o.replicas = 0 }, "-replicas 0"},
		{"retry-attempts -3", func(o *clusterOptions) { o.retry.MaxAttempts = -3 }, "-retry-attempts -3"},
		{"retry-base -1ms", func(o *clusterOptions) { o.retry.BaseDelay = -time.Millisecond }, "-retry-base -1ms"},
		{"retry-max -1s", func(o *clusterOptions) { o.retry.MaxDelay = -time.Second }, "-retry-max -1s"},
		{"retry-budget -1s", func(o *clusterOptions) { o.retry.Budget = -time.Second }, "-retry-budget -1s"},
		{"gpu-memory-util 2", func(o *clusterOptions) { o.memUtil = 2 }, "MemUtil 2 out of (0,1]"},
		{"probe-interval -1s", func(o *clusterOptions) {
			o.replicas, o.remotes, o.probeInterval = 0, []string{"http://127.0.0.1:1"}, -time.Second
		}, "-probe-interval -1s"},
		{"probe-failures -1", func(o *clusterOptions) {
			o.replicas, o.remotes, o.probeFailures = 0, []string{"http://127.0.0.1:1"}, -1
		}, "-probe-failures -1"},
		{"drain-timeout -1s", func(o *clusterOptions) { o.drainTimeout = -time.Second }, "-drain-timeout -1s"},
	} {
		o := clusterOptions{port: 0, replicas: 1, policy: "prefix", modelPath: "Qwen2.5-14B",
			pp: 2, gpuName: "L20-48GB", memUtil: 0.9, schedName: "gllm", budget: 2048,
			retry: cluster.RetryPolicy{MaxAttempts: 4}, logLevel: slog.LevelError + 1}
		tc.mutate(&o)
		done := make(chan error, 1)
		go func() { done <- run(o) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: run = %v, want an error naming %q", tc.name, err, tc.want)
			} else if strings.Contains(err.Error(), "\n") {
				t.Errorf("%s: error spans lines: %q", tc.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: still running after 10 s", tc.name)
		}
	}
}

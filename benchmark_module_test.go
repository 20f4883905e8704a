package gllm_test

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleBuilds keeps the benchmark's frozen-API contract in
// tier-1: benchmark/ is its own module, so `go build ./... && go test ./...`
// never compiles it, and a method it calls by name could otherwise be
// deleted unnoticed until `make check`. The module is stdlib-only with a
// replace onto this tree, so vetting it needs no network.
func TestBenchmarkModuleBuilds(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	cmd := exec.Command(goBin, "vet", ".")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in benchmark/: %v\n%s", err, out)
	}
}

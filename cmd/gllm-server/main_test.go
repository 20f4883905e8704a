package main

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gllm/internal/core"
	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/runtime"
	"gllm/internal/sched"
)

func TestWriteTrace(t *testing.T) {
	rec := obs.NewRecorder(4, 0)
	rt, err := runtime.Start(runtime.Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
		TimeScale: 0,
		Spans:     rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := rt.Submit(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for range h.Events {
	}
	<-h.Done()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	if err := writeTrace(path, rec, rt, logger); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec, err := obs.ReadChrome(f)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stages != 4 || len(dec.Spans) == 0 {
		t.Fatalf("decoded stages=%d spans=%d", dec.Stages, len(dec.Spans))
	}
	if !bytes.Contains(logBuf.Bytes(), []byte("trace written")) {
		t.Fatalf("log missing trace written line: %s", logBuf.String())
	}
}

// A bad -gpu-memory-util is a usage error from run, not a goroutine trace
// from the cost model.
func TestRunRejectsMemUtil(t *testing.T) {
	// NaN used to pass the range check and size a 70 TB cache; an explicit
	// 0 is out of range, not the runtime's unset default.
	for _, v := range []float64{2, math.NaN(), math.Inf(1), math.Inf(-1), -1, 0} {
		err := run(srvOptions{modelPath: "Qwen2.5-14B", pp: 2, gpuName: "L20-48GB", memUtil: v,
			schedName: "gllm", budget: 2048, params: core.DefaultParams()})
		if want := fmt.Sprintf("MemUtil %g out of (0,1]", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run with -gpu-memory-util %g = %v, want the range error", v, err)
		}
	}
}

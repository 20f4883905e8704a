package experiments

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/runtime"
	"gllm/internal/sched"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// Table1Result reproduces Table 1. The paper compares framework sizes (gLLM
// 3,874 lines vs vLLM 226,874) and MMLU-Pro scores showing that Token
// Throttling does not change output quality. Without a GPU the testable
// core of the quality claim is scheduling-invariance: the same requests
// must yield bit-identical token streams under the gLLM scheduler and the
// Sarathi baseline. LoC figures for this reproduction are counted from the
// source tree.
type Table1Result struct {
	// LinesOfCode is the non-test Go LoC of this implementation (0 when no
	// source root was given).
	LinesOfCode int
	// PaperLoC echoes the paper's framework sizes for the comparison row.
	PaperLoC map[string]int
	// Requests compared and whether all outputs matched.
	Requests     int
	OutputsMatch bool
	// DigestGLLM / DigestSarathi are FNV-1a digests over all output tokens.
	DigestGLLM    uint64
	DigestSarathi uint64
}

// Table1Equivalence serves n requests through two live runtimes — one
// scheduled by gLLM Token Throttling, one by Sarathi-Serve — and compares
// the generated token streams. srcRoot, when non-empty, is the repository
// root for LoC counting.
func Table1Equivalence(seed uint64, n int, srcRoot string) (*Table1Result, error) {
	if n < 1 {
		return nil, fmt.Errorf("experiments table1: n = %d", n)
	}
	mk := func(s sched.Scheduler) (*runtime.Runtime, error) {
		return runtime.Start(runtime.Config{
			Model:     model.Qwen25_14B,
			GPU:       gpu.L20,
			Topo:      network.IntraNode(4, network.PCIe),
			Scheduler: s,
			Async:     true,
		})
	}
	serve := func(rt *runtime.Runtime, items []workload.Item) (uint64, error) {
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = rt.Shutdown(ctx)
		}()
		ctx := context.Background()
		handles := make([]*runtime.Handle, len(items))
		for i, it := range items {
			h, err := rt.SubmitBatchedSpec(ctx, runtime.SubmitSpec{PromptLen: it.PromptLen, MaxTokens: it.OutputLen})
			if err != nil {
				return 0, err
			}
			handles[i] = h
		}
		// Digest tokens ordered by (request, index): stream interleaving
		// differs across schedulers, content must not.
		d := fnv.New64a()
		for _, h := range handles {
			for evs := h.Next(ctx); evs != nil; evs = h.Next(ctx) {
				for _, ev := range evs {
					var buf [8]byte
					for i := 0; i < 8; i++ {
						buf[i] = byte(ev.Token >> (8 * i))
					}
					if _, err := d.Write(buf[:]); err != nil {
						return 0, err
					}
				}
			}
		}
		return d.Sum64(), nil
	}

	items := workload.Burst(stats.NewRNG(seed), workload.ShareGPT, n, 0)
	// Both live runtimes are independent (own goroutine pipelines, own
	// virtual state) and the token digests are schedule-invariant, so the
	// two serve runs fan out through the grid runner.
	type variant struct {
		name string
		mk   func() sched.Scheduler
	}
	variants := []variant{
		{"gllm", func() sched.Scheduler { return sched.NewDefaultThrottle() }},
		{"sarathi", func() sched.Scheduler { return sched.NewSarathi(2048) }},
	}
	digests, err := RunGrid(context.Background(), variants, 0,
		func(_ context.Context, v variant) (uint64, error) {
			rt, err := mk(v.mk())
			if err != nil {
				return 0, err
			}
			d, err := serve(rt, items)
			if err != nil {
				return 0, fmt.Errorf("experiments table1: %s serve: %w", v.name, err)
			}
			return d, nil
		})
	if err != nil {
		return nil, err
	}
	dg, ds := digests[0], digests[1]

	res := &Table1Result{
		PaperLoC:      map[string]int{"gLLM": 3874, "SGLang": 65097, "vLLM": 226874},
		Requests:      n,
		OutputsMatch:  dg == ds,
		DigestGLLM:    dg,
		DigestSarathi: ds,
	}
	if srcRoot != "" {
		loc, err := CountGoLines(srcRoot, false)
		if err != nil {
			return nil, fmt.Errorf("experiments table1: loc: %w", err)
		}
		res.LinesOfCode = loc
	}
	return res, nil
}

// String renders the comparison.
func (r *Table1Result) String() string {
	match := "IDENTICAL"
	if !r.OutputsMatch {
		match = "DIVERGED"
	}
	return fmt.Sprintf(
		"Table 1 — size and output quality\n"+
			"  paper LoC: gLLM %d, SGLang %d, vLLM %d; this reproduction: %d\n"+
			"  output equivalence over %d requests: %s (gllm %016x vs sarathi %016x)\n",
		r.PaperLoC["gLLM"], r.PaperLoC["SGLang"], r.PaperLoC["vLLM"], r.LinesOfCode,
		r.Requests, match, r.DigestGLLM, r.DigestSarathi)
}

// CountGoLines counts non-blank lines of Go source under root, skipping
// vendored and hidden directories. includeTests controls _test.go files.
func CountGoLines(root string, includeTests bool) (int, error) {
	total := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// Never skip the root itself (it may be "../.." or ".").
			if path != root && (strings.HasPrefix(name, ".") || name == "vendor" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) != "" {
				total++
			}
		}
		return sc.Err()
	})
	return total, err
}

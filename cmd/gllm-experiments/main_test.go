package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestMainErrQuickSubset(t *testing.T) {
	dir := t.TempDir()
	if err := mainErr("fig1,fig11,table1", "quick", dir, 2); err != nil {
		t.Fatal(err)
	}
	// fig1 writes its token CSV when -out is set.
	if _, err := os.Stat(filepath.Join(dir, "fig01_tokens.csv")); err != nil {
		t.Fatalf("fig1 output missing: %v", err)
	}
}

func TestMainErrTknpArtifact(t *testing.T) {
	dir := t.TempDir()
	if err := mainErr("tknp", "quick", dir, 2); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"BENCH_tknp_regimes.json", "tknp_regimes.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("tknp output missing: %v", err)
		}
	}
}

func TestMainErrErrors(t *testing.T) {
	// An id the steps table does not hold is a usage error naming it and
	// the valid ids, even beside a valid one, and nothing runs: a typo must
	// not surface hours later as a missing CSV.
	for _, run := range []string{"fig99", "fig11,fig51", "cluster", ""} {
		dir := filepath.Join(t.TempDir(), "out")
		err := mainErr(run, "quick", dir, 1)
		if err == nil {
			t.Fatalf("-run %q accepted", run)
		}
		bad := run[strings.LastIndex(run, ",")+1:]
		for _, want := range []string{strconv.Quote(bad), "all, fig1, ", "evolution, disagg, tknp, table1"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("-run %q: error %q does not mention %s", run, err, want)
			}
		}
		if _, statErr := os.Stat(dir); statErr == nil {
			t.Fatalf("-run %q created the output directory before failing", run)
		}
	}
	if err := mainErr("fig1", "huge", "", 1); err == nil {
		t.Fatal("unknown scale accepted")
	}
	// A worker count below 1 is a usage error before any step runs.
	for _, parallel := range []int{0, -2} {
		dir := filepath.Join(t.TempDir(), "out")
		if err := mainErr("fig1", "quick", dir, parallel); err == nil || !strings.Contains(err.Error(), "-parallel") {
			t.Fatalf("-parallel %d: err = %v", parallel, err)
		}
		if _, statErr := os.Stat(dir); statErr == nil {
			t.Fatalf("-parallel %d created the output directory before failing", parallel)
		}
	}
}

// TestPaperRunMatchesResults makes the committed paper run a checked build
// product: it regenerates every results/ artefact at paper scale in memory
// and diffs each byte for byte against the committed file. Only the log's
// timing lines are exempt. The log includes Table 1's line count, so a
// change that moves any number, or the size of the code, re-commits the run:
//
//	go run ./cmd/gllm-experiments -run all -scale paper -out results/ > results/full_run.log
func TestPaperRunMatchesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run: about 8 s on 2 cores")
	}
	var log bytes.Buffer
	got := map[string][]byte{}
	e := env{scaleName: "paper", log: &log, srcRoot: filepath.Join("..", ".."),
		save: func(name string, data []byte) error {
			got[name] = data
			return nil
		}}
	if err := e.run("all", 0); err != nil {
		t.Fatal(err)
	}
	got["full_run.log"] = log.Bytes()

	timing := regexp.MustCompile(`(?m)^\(\S+ took [0-9.]+s\)$`)
	mask := func(name string, data []byte) []byte {
		if name == "full_run.log" {
			return timing.ReplaceAll(data, []byte("(timing)"))
		}
		return data
	}
	dir := filepath.Join("..", "..", "results")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if _, ok := got[ent.Name()]; !ok {
			t.Errorf("results/%s: committed, but the paper run does not write it", ent.Name())
		}
	}
	for name, data := range got {
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("results/%s: written by the paper run, not committed: %v", name, err)
			continue
		}
		if w, g := mask(name, want), mask(name, data); !bytes.Equal(w, g) {
			t.Errorf("results/%s is stale: %s", name, firstDiff(w, g))
		}
	}
}

// firstDiff names the first line where committed and generated differ.
func firstDiff(committed, generated []byte) string {
	a, b := strings.Split(string(committed), "\n"), strings.Split(string(generated), "\n")
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	line := func(l []string) string {
		if i < len(l) {
			return strconv.Quote(l[i])
		}
		return "end of file"
	}
	return fmt.Sprintf("line %d reads %s, the run writes %s", i+1, line(a), line(b))
}

package main

import (
	"os"
	"path/filepath"
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
		err := mainErr(run, "quick", dir, 0)
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
	if err := mainErr("fig1", "huge", "", 0); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

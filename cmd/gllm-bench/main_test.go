package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"gllm/internal/metrics"
)

func TestParseGoodput(t *testing.T) {
	ttft, tpot, err := parseGoodput("ttft:2000 tpot:100")
	if err != nil {
		t.Fatal(err)
	}
	if ttft != 2*time.Second || tpot != 100*time.Millisecond {
		t.Fatalf("parsed %v/%v", ttft, tpot)
	}
	// Order-independent, case-insensitive keys, fractional ms.
	ttft, tpot, err = parseGoodput("TPOT:250.5 TTFT:1000")
	if err != nil {
		t.Fatal(err)
	}
	if ttft != time.Second || tpot != 250500*time.Microsecond {
		t.Fatalf("parsed %v/%v", ttft, tpot)
	}
}

func TestWriteHistCSV(t *testing.T) {
	records := []metrics.Record{
		{TTFT: 30 * time.Millisecond, TPOT: 5 * time.Millisecond,
			E2E: 400 * time.Millisecond, Queue: 2 * time.Millisecond, FinishReason: "length"},
		{TTFT: 120 * time.Millisecond, TPOT: 20 * time.Millisecond,
			E2E: 900 * time.Millisecond, Queue: 8 * time.Millisecond, FinishReason: "length"},
		// Aborted: excluded from latency histograms, counted in queue delay.
		{TTFT: 10 * time.Millisecond, Queue: time.Millisecond, FinishReason: "cancelled"},
	}
	var sb strings.Builder
	if err := writeHistCSV(&sb, records); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if lines[0] != "metric,kind,value" {
		t.Fatalf("header = %q", lines[0])
	}
	counts := map[string]string{}
	perMetric := map[string][]int{}
	for _, line := range lines[1:] {
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			t.Fatalf("bad row %q", line)
		}
		if parts[1] == "count" {
			counts[parts[0]] = parts[2]
		}
		if strings.HasPrefix(parts[1], "le:") {
			n, err := strconv.Atoi(parts[2])
			if err != nil {
				t.Fatalf("bucket value %q: %v", parts[2], err)
			}
			perMetric[parts[0]] = append(perMetric[parts[0]], n)
		}
	}
	if counts["ttft_seconds"] != "2" || counts["queue_delay_seconds"] != "3" {
		t.Fatalf("counts = %v", counts)
	}
	wantBuckets := len(metrics.DefaultLatencyBuckets) + 1
	for metric, buckets := range perMetric {
		if len(buckets) != wantBuckets {
			t.Fatalf("%s: %d buckets, want %d", metric, len(buckets), wantBuckets)
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] < buckets[i-1] {
				t.Fatalf("%s: buckets not cumulative: %v", metric, buckets)
			}
		}
	}
	if got := perMetric["ttft_seconds"][wantBuckets-1]; got != 2 {
		t.Fatalf("ttft +Inf bucket = %d", got)
	}
}

func TestParseGoodputErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"ttft:1000",
		"tpot:100",
		"ttft:abc tpot:100",
		"latency:5",
		"ttft=1000 tpot=100",
	} {
		if _, _, err := parseGoodput(spec); err == nil {
			t.Errorf("%q parsed", spec)
		}
	}
}

// -splitwise-path replays a recorded Azure CSV in place of the synthesized
// trace; without it the dataset name decides.
func TestLoadWorkloadSplitwisePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "azure.csv")
	csv := "TIMESTAMP,ContextTokens,GeneratedTokens\n100.0,500,20\n100.5,1000,50\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	items, err := loadWorkload(benchOptions{azureCSV: path, datasetName: "ignored"})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[1].PromptLen != 1000 || items[1].Arrival != 500*time.Millisecond {
		t.Fatalf("replayed trace = %+v", items)
	}
	if _, err := loadWorkload(benchOptions{azureCSV: path + ".missing"}); err == nil {
		t.Fatal("missing CSV accepted")
	}
	if _, err := loadWorkload(benchOptions{datasetName: "pile", rate: 1, duration: time.Second}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

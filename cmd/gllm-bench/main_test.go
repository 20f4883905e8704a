package main

import (
	"os"
	"path/filepath"
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

// The CSV is the client collector's scrape, byte for byte what the earlier
// re-bucketing of its records wrote for the same three requests.
func TestWriteHistCSV(t *testing.T) {
	var c metrics.Collector
	for _, rec := range []metrics.Record{
		{TTFT: 30 * time.Millisecond, TPOT: 5 * time.Millisecond,
			E2E: 400 * time.Millisecond, Queue: 2 * time.Millisecond, FinishReason: "length"},
		{TTFT: 120 * time.Millisecond, TPOT: 20 * time.Millisecond,
			E2E: 900 * time.Millisecond, Queue: 8 * time.Millisecond, FinishReason: "length"},
		// Aborted: excluded from latency histograms, counted in queue delay.
		{TTFT: 10 * time.Millisecond, Queue: time.Millisecond, FinishReason: "cancelled"},
	} {
		c.Add(rec)
	}
	var sb strings.Builder
	if err := writeHistCSV(&sb, c.Scrape()); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != wantHistCSV {
		t.Fatalf("histogram CSV:\n%s\nwant:\n%s", got, wantHistCSV)
	}
}

// wantHistCSV is writeHistCSV's output for TestWriteHistCSV's records.
const wantHistCSV = `metric,kind,value
ttft_seconds,le:0.001,0
ttft_seconds,le:0.0025,0
ttft_seconds,le:0.005,0
ttft_seconds,le:0.01,0
ttft_seconds,le:0.025,0
ttft_seconds,le:0.05,1
ttft_seconds,le:0.1,1
ttft_seconds,le:0.25,2
ttft_seconds,le:0.5,2
ttft_seconds,le:1,2
ttft_seconds,le:2.5,2
ttft_seconds,le:5,2
ttft_seconds,le:10,2
ttft_seconds,le:30,2
ttft_seconds,le:60,2
ttft_seconds,le:120,2
ttft_seconds,le:+Inf,2
ttft_seconds,sum,0.15
ttft_seconds,count,2
tpot_seconds,le:0.001,0
tpot_seconds,le:0.0025,0
tpot_seconds,le:0.005,1
tpot_seconds,le:0.01,1
tpot_seconds,le:0.025,2
tpot_seconds,le:0.05,2
tpot_seconds,le:0.1,2
tpot_seconds,le:0.25,2
tpot_seconds,le:0.5,2
tpot_seconds,le:1,2
tpot_seconds,le:2.5,2
tpot_seconds,le:5,2
tpot_seconds,le:10,2
tpot_seconds,le:30,2
tpot_seconds,le:60,2
tpot_seconds,le:120,2
tpot_seconds,le:+Inf,2
tpot_seconds,sum,0.025
tpot_seconds,count,2
e2el_seconds,le:0.001,0
e2el_seconds,le:0.0025,0
e2el_seconds,le:0.005,0
e2el_seconds,le:0.01,0
e2el_seconds,le:0.025,0
e2el_seconds,le:0.05,0
e2el_seconds,le:0.1,0
e2el_seconds,le:0.25,0
e2el_seconds,le:0.5,1
e2el_seconds,le:1,2
e2el_seconds,le:2.5,2
e2el_seconds,le:5,2
e2el_seconds,le:10,2
e2el_seconds,le:30,2
e2el_seconds,le:60,2
e2el_seconds,le:120,2
e2el_seconds,le:+Inf,2
e2el_seconds,sum,1.3
e2el_seconds,count,2
queue_delay_seconds,le:0.001,1
queue_delay_seconds,le:0.0025,2
queue_delay_seconds,le:0.005,2
queue_delay_seconds,le:0.01,3
queue_delay_seconds,le:0.025,3
queue_delay_seconds,le:0.05,3
queue_delay_seconds,le:0.1,3
queue_delay_seconds,le:0.25,3
queue_delay_seconds,le:0.5,3
queue_delay_seconds,le:1,3
queue_delay_seconds,le:2.5,3
queue_delay_seconds,le:5,3
queue_delay_seconds,le:10,3
queue_delay_seconds,le:30,3
queue_delay_seconds,le:60,3
queue_delay_seconds,le:120,3
queue_delay_seconds,le:+Inf,3
queue_delay_seconds,sum,0.011
queue_delay_seconds,count,3
`

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

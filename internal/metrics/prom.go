package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) helpers. The server
// builds its /metrics page from Scrape snapshots, whose counters and
// histogram buckets only ever grow, so every series is monotone across
// scrapes by construction.

// DefaultLatencyBuckets are the histogram bounds (seconds) used for
// TTFT/TPOT/E2EL/queue-delay series: 1 ms to ~2 min in roughly 2.5×/2×
// steps, matching the paper's latency scales (TPOT in tens of ms, TTFT in
// hundreds of ms to seconds).
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Label is one Prometheus label pair.
type Label struct {
	Name  string
	Value string
}

func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		v := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(l.Value)
		parts[i] = l.Name + `="` + v + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}

// WriteHeader emits the # HELP / # TYPE preamble for a metric family.
func WriteHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// WriteSample emits one sample line.
func WriteSample(w io.Writer, name string, labels []Label, value float64) {
	fmt.Fprintf(w, "%s%s %s\n", name, formatLabels(labels), formatValue(value))
}

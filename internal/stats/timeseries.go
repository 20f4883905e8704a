package stats

import (
	"fmt"
	"strings"
	"time"
)

// Point is one (time, value) observation.
type Point struct {
	T time.Duration
	V float64
}

// TimeSeries accumulates timestamped observations (e.g. per-iteration
// batched token counts or per-window GPU utilization).
type TimeSeries struct {
	Name   string
	Points []Point
}

// NewTimeSeries returns an empty named series.
func NewTimeSeries(name string) *TimeSeries {
	return &TimeSeries{Name: name}
}

// Record appends an observation. Timestamps are expected to be
// non-decreasing; Record does not enforce this.
func (ts *TimeSeries) Record(t time.Duration, v float64) {
	ts.Points = append(ts.Points, Point{T: t, V: v})
}

// Values returns the raw observation values in recording order.
func (ts *TimeSeries) Values() []float64 {
	out := make([]float64, len(ts.Points))
	for i, p := range ts.Points {
		out[i] = p.V
	}
	return out
}

// Summary summarizes the observation values.
func (ts *TimeSeries) Summary() Summary { return Summarize(ts.Values()) }

// CSV renders the series as "seconds,value" rows with a header.
func (ts *TimeSeries) CSV() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "seconds,%s\n", ts.Name)
	for _, p := range ts.Points {
		fmt.Fprintf(&sb, "%.6f,%g\n", p.T.Seconds(), p.V)
	}
	return sb.String()
}

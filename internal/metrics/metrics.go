// Package metrics aggregates the serving metrics the paper reports: TTFT,
// TPOT, E2EL, token throughput and SLO attainment (§4.1 "Metrics").
package metrics

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"gllm/internal/request"
	"gllm/internal/stats"
)

// Record is the outcome of one terminated request.
type Record struct {
	ID           int64
	Arrival      time.Duration
	TTFT         time.Duration
	TPOT         time.Duration
	E2E          time.Duration
	Queue        time.Duration // arrival → first schedule delay
	PromptTokens int
	OutputTokens int
	Preemptions  int
	// FinishReason records how the request terminated: "" or "length" for a
	// completed generation; aborted requests carry their abort reason
	// ("cancelled", "timeout", "shutdown", ...).
	FinishReason string
}

// Completed reports whether the record is a full generation (as opposed to
// an aborted one). Latency summaries cover only completed records.
func (r Record) Completed() bool {
	return r.FinishReason == "" || r.FinishReason == "length"
}

// Live is the fixed-size collector a serving component holds for the life
// of the process (a runtime, a remote transport): per-reason counts, token
// totals and the bucketed latency histograms, all updated at Add time, so
// its memory and every method's cost are O(buckets) however many requests
// have been served. All methods are safe for concurrent use.
type Live struct {
	mu        sync.Mutex
	n         int
	byReason  map[string]uint64
	promptTok int64
	outputTok int64
	// completedTok counts the output tokens of completed generations only:
	// the replica side of the cluster audit's token-conservation check.
	completedTok int64
	ttft         histCore
	tpot         histCore
	e2e          histCore
	queue        histCore
}

// Collector is Live plus the record rows, for runs that end (the
// virtual-time engines, the benchmark client): Records, Report and
// SLOAttainment stay exact at the price of one Record per request.
type Collector struct {
	Live
	records []Record
}

// Observe builds the record of a completed request. It panics when the
// request has not finished — collecting partial requests would corrupt
// every average.
func Observe(r *request.Request) Record {
	if !r.Finished() {
		panic(fmt.Sprintf("metrics: observing unfinished %v", r))
	}
	return Record{
		ID:           r.ID,
		Arrival:      r.Arrival,
		TTFT:         r.TTFT(),
		TPOT:         r.TPOT(),
		E2E:          r.E2E(),
		Queue:        r.FirstSchedule - r.Arrival,
		PromptTokens: r.PromptLen,
		OutputTokens: r.Generated(),
		Preemptions:  r.Preemptions,
		FinishReason: "length",
	}
}

// ObserveAborted builds the record of a request terminated before
// completion with its real terminal reason ("cancelled", "timeout",
// "shutdown"). It panics on a completed request — that is Observe's job.
// Aborted records contribute token counts but are excluded from latency
// summaries (TTFT is kept when the request got a first token before dying;
// TPOT/E2E are undefined and left zero).
func ObserveAborted(r *request.Request, reason string) Record {
	if r.Finished() {
		panic(fmt.Sprintf("metrics: ObserveAborted on finished %v", r))
	}
	if reason == "" || reason == "length" {
		panic(fmt.Sprintf("metrics: aborted %v with completion reason %q", r, reason))
	}
	rec := Record{
		ID:           r.ID,
		Arrival:      r.Arrival,
		PromptTokens: r.PromptLen,
		OutputTokens: r.Generated(),
		Preemptions:  r.Preemptions,
		FinishReason: reason,
	}
	if r.FirstSchedule > 0 {
		rec.Queue = r.FirstSchedule - r.Arrival
	}
	if r.HasFirstToken() {
		rec.TTFT = r.TTFT()
	}
	return rec
}

// add folds one record into the fixed-size state; the caller holds l.mu.
// It allocates only the first time a finish reason is seen.
func (l *Live) add(rec *Record) {
	if l.byReason == nil {
		l.byReason = make(map[string]uint64)
	}
	reason := rec.FinishReason
	if reason == "" {
		reason = "length"
	}
	l.n++
	l.byReason[reason]++
	l.promptTok += int64(rec.PromptTokens)
	l.outputTok += int64(rec.OutputTokens)
	l.queue.observe(rec.Queue.Seconds())
	if rec.Completed() {
		l.completedTok += int64(rec.OutputTokens)
		l.ttft.observe(rec.TTFT.Seconds())
		l.tpot.observe(rec.TPOT.Seconds())
		l.e2e.observe(rec.E2E.Seconds())
	}
}

// Add records one terminated request.
func (l *Live) Add(rec Record) {
	l.mu.Lock()
	l.add(&rec)
	l.mu.Unlock()
}

// Add records one terminated request and keeps its row.
func (c *Collector) Add(rec Record) {
	c.mu.Lock()
	c.add(&rec)
	c.records = append(c.records, rec)
	c.mu.Unlock()
}

// Scrape is the O(buckets) exposition view of a collector (or a
// federation of them): what /metrics needs that derives from request
// records. Latency histograms cover completed generations only; the
// queue-delay histogram and token totals cover every terminated
// request — exactly the series the exposition always emitted.
// CompletedOutputTokens is not exposed as a series; the cluster audit
// reads it.
type Scrape struct {
	ByReason              map[string]uint64
	PromptTokens          int64
	OutputTokens          int64
	CompletedOutputTokens int64
	TTFT                  HistSnapshot
	TPOT                  HistSnapshot
	E2E                   HistSnapshot
	Queue                 HistSnapshot
}

// Scrape snapshots the incremental exposition state.
func (l *Live) Scrape() Scrape {
	l.mu.Lock()
	defer l.mu.Unlock()
	by := make(map[string]uint64, len(l.byReason))
	for k, v := range l.byReason {
		by[k] = v
	}
	return Scrape{
		ByReason:              by,
		PromptTokens:          l.promptTok,
		OutputTokens:          l.outputTok,
		CompletedOutputTokens: l.completedTok,
		TTFT:                  l.ttft.snapshot(),
		TPOT:                  l.tpot.snapshot(),
		E2E:                   l.e2e.snapshot(),
		Queue:                 l.queue.snapshot(),
	}
}

// Merge folds another scrape into s (cluster federation: summing the
// same series across replicas).
func (s *Scrape) Merge(o Scrape) {
	if s.ByReason == nil {
		s.ByReason = make(map[string]uint64, len(o.ByReason))
	}
	for k, v := range o.ByReason {
		s.ByReason[k] += v
	}
	s.PromptTokens += o.PromptTokens
	s.OutputTokens += o.OutputTokens
	s.CompletedOutputTokens += o.CompletedOutputTokens
	s.TTFT.Merge(o.TTFT)
	s.TPOT.Merge(o.TPOT)
	s.E2E.Merge(o.E2E)
	s.Queue.Merge(o.Queue)
}

// Count returns the number of recorded requests (completed and aborted).
func (l *Live) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// ByReason returns how many records terminated with each finish reason
// (completed generations count under "length").
func (l *Live) ByReason() map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]int, len(l.byReason))
	for k, v := range l.byReason {
		out[k] = int(v)
	}
	return out
}

// Records returns a snapshot copy of the collected records.
func (c *Collector) Records() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Record(nil), c.records...)
}

// Report summarizes the collected requests over the given elapsed serving
// time (used as the throughput denominator). Latency summaries cover only
// completed generations; token and preemption totals cover every record so
// aborted work still shows up in throughput accounting.
func (c *Collector) Report(elapsed time.Duration) Report {
	records := c.Records()
	var ttft, tpot, e2e []float64
	var inTok, outTok int64
	preempt, completed, aborted := 0, 0, 0
	for _, r := range records {
		inTok += int64(r.PromptTokens)
		outTok += int64(r.OutputTokens)
		preempt += r.Preemptions
		if !r.Completed() {
			aborted++
			continue
		}
		completed++
		ttft = append(ttft, r.TTFT.Seconds())
		tpot = append(tpot, r.TPOT.Seconds())
		e2e = append(e2e, r.E2E.Seconds())
	}
	rep := Report{
		Requests:     completed,
		Aborted:      aborted,
		Elapsed:      elapsed,
		TTFT:         stats.Summarize(ttft),
		TPOT:         stats.Summarize(tpot),
		E2E:          stats.Summarize(e2e),
		InputTokens:  inTok,
		OutputTokens: outTok,
		Preemptions:  preempt,
	}
	if elapsed > 0 {
		sec := elapsed.Seconds()
		rep.TokenThroughput = float64(inTok+outTok) / sec
		rep.OutputThroughput = float64(outTok) / sec
		rep.RequestThroughput = float64(completed) / sec
	}
	return rep
}

// SLOAttainment returns the fraction of requests meeting both the TTFT and
// TPOT constraints (the paper's goodput definition, e.g. "ttft:2000
// tpot:100" in ms). An empty collector attains 0.
func (c *Collector) SLOAttainment(ttftLimit, tpotLimit time.Duration) float64 {
	records := c.Records()
	if len(records) == 0 {
		return 0
	}
	ok := 0
	for _, r := range records {
		if r.Completed() && r.TTFT <= ttftLimit && r.TPOT <= tpotLimit {
			ok++
		}
	}
	return float64(ok) / float64(len(records))
}

// Report is the summarized outcome of one serving run.
type Report struct {
	Requests          int // completed generations
	Aborted           int // cancelled / timed out / shut down
	Elapsed           time.Duration
	TTFT              stats.Summary // seconds
	TPOT              stats.Summary // seconds
	E2E               stats.Summary // seconds
	InputTokens       int64
	OutputTokens      int64
	TokenThroughput   float64 // (input+output) tokens / s
	OutputThroughput  float64 // output tokens / s
	RequestThroughput float64 // requests / s
	Preemptions       int
}

// String renders the report as the experiment tables print it.
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "requests=%d elapsed=%.1fs", r.Requests, r.Elapsed.Seconds())
	if r.Aborted > 0 {
		fmt.Fprintf(&sb, " aborted=%d", r.Aborted)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "  TTFT  mean=%.3fs p99=%.3fs\n", r.TTFT.Mean, r.TTFT.P99)
	fmt.Fprintf(&sb, "  TPOT  mean=%.1fms p99=%.1fms\n", r.TPOT.Mean*1e3, r.TPOT.P99*1e3)
	fmt.Fprintf(&sb, "  E2EL  mean=%.3fs p99=%.3fs\n", r.E2E.Mean, r.E2E.P99)
	fmt.Fprintf(&sb, "  throughput=%.1f tok/s (out %.1f tok/s, %.2f req/s) preemptions=%d\n",
		r.TokenThroughput, r.OutputThroughput, r.RequestThroughput, r.Preemptions)
	return sb.String()
}

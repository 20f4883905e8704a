package metrics

import (
	"strings"
	"testing"
	"time"

	"gllm/internal/request"
)

// finishedRequest fabricates a finished request with the given timings.
func finishedRequest(t *testing.T, id int64, arrival time.Duration, prompt, out int, step time.Duration) *request.Request {
	t.Helper()
	r := request.New(id, arrival, prompt, out)
	now := arrival + step
	r.ScheduleChunk(prompt, now)
	now += step
	r.CompleteChunk(now)
	for !r.Finished() {
		r.ScheduleDecode()
		now += step
		r.CompleteDecode(now)
	}
	return r
}

func TestObserveAndReport(t *testing.T) {
	var c Collector
	c.Add(Observe(finishedRequest(t, 1, 0, 100, 5, time.Second)))
	c.Add(Observe(finishedRequest(t, 2, time.Second, 200, 3, time.Second)))
	if c.Count() != 2 {
		t.Fatalf("count = %d", c.Count())
	}
	rep := c.Report(10 * time.Second)
	if rep.Requests != 2 {
		t.Fatalf("requests = %d", rep.Requests)
	}
	if rep.InputTokens != 300 {
		t.Fatalf("input tokens = %d", rep.InputTokens)
	}
	if rep.OutputTokens != 8 {
		t.Fatalf("output tokens = %d", rep.OutputTokens)
	}
	wantTput := float64(308) / 10
	if rep.TokenThroughput != wantTput {
		t.Fatalf("throughput = %v, want %v", rep.TokenThroughput, wantTput)
	}
	if rep.RequestThroughput != 0.2 {
		t.Fatalf("request throughput = %v", rep.RequestThroughput)
	}
	// TTFT of both: 2 steps after arrival = 2 s.
	if rep.TTFT.Mean != 2.0 {
		t.Fatalf("TTFT mean = %v", rep.TTFT.Mean)
	}
	// TPOT: one token per second after the first.
	if rep.TPOT.Mean != 1.0 {
		t.Fatalf("TPOT mean = %v", rep.TPOT.Mean)
	}
}

func TestObserveUnfinishedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var c Collector
	c.Add(Observe(request.New(1, 0, 10, 5)))
}

func TestSLOAttainment(t *testing.T) {
	var c Collector
	// Fast request: TTFT 2s, TPOT 1s.
	c.Add(Observe(finishedRequest(t, 1, 0, 10, 5, time.Second)))
	// Slow request: TTFT 20s, TPOT 10s.
	c.Add(Observe(finishedRequest(t, 2, 0, 10, 5, 10*time.Second)))

	if got := c.SLOAttainment(5*time.Second, 2*time.Second); got != 0.5 {
		t.Fatalf("attainment = %v, want 0.5", got)
	}
	if got := c.SLOAttainment(time.Minute, time.Minute); got != 1.0 {
		t.Fatalf("attainment = %v, want 1.0", got)
	}
	if got := c.SLOAttainment(time.Millisecond, time.Millisecond); got != 0 {
		t.Fatalf("attainment = %v, want 0", got)
	}
	// Violating only TPOT still fails the SLO.
	if got := c.SLOAttainment(time.Minute, 500*time.Millisecond); got != 0 {
		t.Fatalf("TPOT-only violation attained %v", got)
	}
}

func TestSLOEmptyCollector(t *testing.T) {
	var c Collector
	if got := c.SLOAttainment(time.Second, time.Second); got != 0 {
		t.Fatalf("empty attainment = %v", got)
	}
}

func TestAddRawRecord(t *testing.T) {
	var c Collector
	c.Add(Record{ID: 7, TTFT: time.Second, TPOT: time.Millisecond, E2E: 2 * time.Second, PromptTokens: 50, OutputTokens: 20})
	rep := c.Report(time.Second)
	if rep.Requests != 1 || rep.InputTokens != 50 || rep.OutputTokens != 20 {
		t.Fatalf("report = %+v", rep)
	}
	if len(c.Records()) != 1 || c.Records()[0].ID != 7 {
		t.Fatal("records not exposed")
	}
}

func TestReportZeroElapsed(t *testing.T) {
	var c Collector
	c.Add(Record{PromptTokens: 10, OutputTokens: 2})
	rep := c.Report(0)
	if rep.TokenThroughput != 0 {
		t.Fatalf("throughput with zero elapsed = %v", rep.TokenThroughput)
	}
}

func TestPreemptionsRollUp(t *testing.T) {
	var c Collector
	c.Add(Record{Preemptions: 2})
	c.Add(Record{Preemptions: 3})
	if got := c.Report(time.Second).Preemptions; got != 5 {
		t.Fatalf("preemptions = %d", got)
	}
}

func TestReportString(t *testing.T) {
	var c Collector
	c.Add(Record{TTFT: time.Second, TPOT: 50 * time.Millisecond, E2E: 3 * time.Second, PromptTokens: 10, OutputTokens: 5})
	s := c.Report(time.Second).String()
	for _, want := range []string{"TTFT", "TPOT", "E2EL", "throughput"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report string missing %q:\n%s", want, s)
		}
	}
}

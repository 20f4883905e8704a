package cluster

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"gllm/internal/obs"
)

// The trace ID a caller attaches to a Request must survive the whole
// retry loop: every pick attempt (including rejected ones) and every
// backoff sleep records under the SAME ID, with monotone attempt
// numbers — so a merged trace shows the full routing history of one
// request in one lane.
func TestTraceSurvivesRetryRepick(t *testing.T) {
	rt := startReplica(t, nil)
	eng := newFakeEngine(okPressure())
	eng.delegate = rt
	eng.rejectFirst = 2 // two 429s, then the delegate accepts

	rr := obs.NewReqRecorder(0)
	clk := newFakeClock()
	r := New(Config{
		Policy: NewRoundRobin(),
		Retry: RetryPolicy{
			MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond,
			Budget: time.Hour, HonorRetryAfter: false,
		},
		Clock: clk, Seed: 11, ReqSpans: rr,
	})
	if _, err := r.Add("a", eng); err != nil {
		t.Fatal(err)
	}

	want := obs.TraceID(0x7a7a7a7a7a7a7a7a)
	h, rep, err := r.Submit(context.Background(), Request{PromptLen: 8, MaxTokens: 2, Trace: want})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "a" {
		t.Fatalf("routed to %q", rep.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for h.Next(ctx) != nil {
	}

	var picks, backoffs []obs.ReqSpan
	for _, s := range rr.Spans() {
		if s.Trace != want {
			t.Fatalf("span %q recorded under trace %s, want %s", s.Name, s.Trace, want)
		}
		if s.Side != obs.SideRouter {
			t.Fatalf("span %q recorded with side %q", s.Name, s.Side)
		}
		switch s.Name {
		case obs.SpanPick:
			picks = append(picks, s)
		case obs.SpanBackoff:
			backoffs = append(backoffs, s)
		default:
			t.Fatalf("unexpected router span %q", s.Name)
		}
	}
	if len(picks) != 3 {
		t.Fatalf("%d pick spans, want 3 (two rejected + one accepted)", len(picks))
	}
	for i, s := range picks {
		if int(s.Attempt) != i {
			t.Fatalf("pick span %d has attempt %d", i, s.Attempt)
		}
		if s.Detail != "a" {
			t.Fatalf("pick span %d detail %q, want replica ID", i, s.Detail)
		}
	}
	if len(backoffs) != 2 {
		t.Fatalf("%d backoff spans, want 2", len(backoffs))
	}
	for i, s := range backoffs {
		if s.Detail != "queue_full" {
			t.Fatalf("backoff span %d reason %q, want queue_full", i, s.Detail)
		}
	}

	// The same history is visible on the stats surface.
	st := r.RouterStats()
	if st.ByReason["queue_full"] != 2 {
		t.Fatalf("retries by reason = %v, want queue_full:2", st.ByReason)
	}
	if st.Picks["a"] != 1 {
		t.Fatalf("picks = %v, want a:1", st.Picks)
	}
	if st.Backoff.Count != 2 {
		t.Fatalf("backoff histogram count = %d, want 2", st.Backoff.Count)
	}
}

// An untraced request (zero ID) must route normally and record nothing —
// tracing is strictly opt-in per request.
func TestUntracedRequestRecordsNoSpans(t *testing.T) {
	rt := startReplica(t, nil)
	eng := newFakeEngine(okPressure())
	eng.delegate = rt
	rr := obs.NewReqRecorder(0)
	r := New(Config{Policy: NewRoundRobin(), Seed: 3, ReqSpans: rr})
	if _, err := r.Add("a", eng); err != nil {
		t.Fatal(err)
	}
	h, _, err := r.Submit(context.Background(), Request{PromptLen: 8, MaxTokens: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for h.Next(ctx) != nil {
	}
	if n := rr.Total(); n != 0 {
		t.Fatalf("untraced submit recorded %d spans", n)
	}
}

// tracingEngine is a fakeEngine serving a fixed /tracespans export.
type tracingEngine struct {
	*fakeEngine
	export obs.ReqExport
}

func (e tracingEngine) TraceExport(context.Context) (obs.ReqExport, error) { return e.export, nil }

// A replica whose export holds a span the trace writer refuses drops out
// of the merged trace alone: /cluster/trace and the -trace-out file still
// carry the good replica's spans, and the bad one's refusal is logged.
func TestMergedTraceDropsOnlyTheRefusedReplica(t *testing.T) {
	span := obs.ReqSpan{Trace: 7, Name: obs.SpanQueue, Side: obs.SideReplica, Start: 10_000, End: 20_000}
	bad := span
	bad.Trace, bad.Side = 8, "nowhere"
	var logs bytes.Buffer
	r := New(Config{Policy: NewRoundRobin(), Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	for id, ex := range map[string]obs.ReqExport{
		"good": {OriginUnixNano: 1_786_167_139_000_000_123, Spans: []obs.ReqSpan{span}},
		"bad":  {OriginUnixNano: 1_786_167_139_000_000_123, Spans: []obs.ReqSpan{span, bad}},
	} {
		if _, err := r.Add(id, tracingEngine{newFakeEngine(okPressure()), ex}); err != nil {
			t.Fatal(err)
		}
	}
	fe := NewFrontend(r, nil, time.Second, nil, nil, "m")
	t.Cleanup(fe.Close)
	ts := httptest.NewServer(fe)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/cluster/trace")
	if err != nil {
		t.Fatal(err)
	}
	fromHTTP, err := obs.ReadChrome(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/cluster/trace does not decode: %v", err)
	}
	path := filepath.Join(t.TempDir(), "req.json")
	if err := fe.WriteMergedTrace(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := obs.ReadChrome(f)
	f.Close()
	if err != nil {
		t.Fatalf("-trace-out file does not decode: %v", err)
	}
	span.Start, span.End = 0, 10_000 // the merged clock starts at the earliest span
	for name, dec := range map[string]*obs.DecodedTrace{"/cluster/trace": fromHTTP, "file": fromFile} {
		if !slices.Equal(dec.Requests, []obs.ReqSpan{span}) {
			t.Errorf("%s carries %+v, want the good replica's %+v", name, dec.Requests, span)
		}
	}
	if !strings.Contains(logs.String(), "trace export refused") || !strings.Contains(logs.String(), "replica=bad") {
		t.Fatalf("refusal not logged:\n%s", logs.String())
	}
}

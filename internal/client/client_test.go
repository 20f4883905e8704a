package client

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/runtime"
	"gllm/internal/sched"
	"gllm/internal/server"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

func benchTarget(t *testing.T) *httptest.Server {
	t.Helper()
	rt, err := runtime.Start(runtime.Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(rt, "Qwen2.5-14B"))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	})
	return ts
}

func TestEndToEndBenchmark(t *testing.T) {
	ts := benchTarget(t)
	items := workload.Poisson(stats.NewRNG(5), workload.ShareGPT, 80, 500*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, Options{
		BaseURL:    ts.URL,
		Model:      "Qwen2.5-14B",
		Items:      items,
		PromptMode: PromptSynthetic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if res.Report.Requests != len(items) {
		t.Fatalf("finished %d/%d", res.Report.Requests, len(items))
	}
	if res.Report.TTFT.Mean <= 0 || res.Report.E2E.Mean <= 0 {
		t.Fatalf("latencies not measured: %+v", res.Report)
	}
	// Output token counts must match what we asked for.
	var want int64
	for _, it := range items {
		want += int64(it.OutputLen)
	}
	if res.Report.OutputTokens != want {
		t.Fatalf("output tokens = %d, want %d", res.Report.OutputTokens, want)
	}
	if res.Report.TTFT.Mean > res.Report.E2E.Mean {
		t.Fatal("TTFT exceeds E2E")
	}
}

func TestRealPromptPath(t *testing.T) {
	ts := benchTarget(t)
	items := []workload.Item{{PromptLen: 12, OutputLen: 3}}
	res, err := Run(context.Background(), Options{
		BaseURL: ts.URL,
		Model:   "Qwen2.5-14B",
		Items:   items,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	recs := res.Collector.Records()
	if len(recs) != 1 || recs[0].OutputTokens != 3 {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].TPOT <= 0 {
		t.Fatalf("TPOT = %v", recs[0].TPOT)
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := Run(context.Background(), Options{}); err == nil {
		t.Fatal("empty BaseURL accepted")
	}
	if _, err := Run(context.Background(), Options{
		BaseURL: "http://x",
		Items:   []workload.Item{{PromptLen: 0, OutputLen: 1}},
	}); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func TestServerDownReportsErrors(t *testing.T) {
	res, err := Run(context.Background(), Options{
		BaseURL: "http://127.0.0.1:1", // nothing listens here
		Items:   []workload.Item{{PromptLen: 5, OutputLen: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 1 {
		t.Fatalf("errors = %v", res.Errors)
	}
	if res.Report.Requests != 0 {
		t.Fatal("failed request counted as finished")
	}
}

// 429 responses are counted as shed load (Result.Rejected), not failures,
// and other statuses stay errors.
func TestRejectionsCountedSeparately(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":{"message":"shed","type":"rate_limit_error"}}`, http.StatusTooManyRequests)
			return
		}
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(ts.Close)

	items := make([]workload.Item, 6)
	for i := range items {
		items[i] = workload.Item{PromptLen: 8, OutputLen: 2}
	}
	res, err := Run(context.Background(), Options{
		BaseURL:    ts.URL,
		Items:      items,
		PromptMode: PromptSynthetic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 3 {
		t.Fatalf("rejected = %d, want 3", res.Rejected)
	}
	if len(res.Errors) != 3 {
		t.Fatalf("errors = %d (%v), want 3", len(res.Errors), res.Errors)
	}
	if res.Report.Requests != 0 {
		t.Fatalf("finished = %d, want 0", res.Report.Requests)
	}
}

// The client reads finish_reason from the stream: a server-side abort
// (empty-text terminator with a non-length reason) is reported as an error,
// not a short success.
func TestAbortedStreamIsError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		_, _ = w.Write([]byte(`data: {"choices":[{"text":"tok ","finish_reason":""}]}` + "\n\n"))
		_, _ = w.Write([]byte(`data: {"choices":[{"text":"","finish_reason":"shutdown"}]}` + "\n\n"))
		_, _ = w.Write([]byte("data: [DONE]\n\n"))
	}))
	t.Cleanup(ts.Close)

	res, err := Run(context.Background(), Options{
		BaseURL:    ts.URL,
		Items:      []workload.Item{{PromptLen: 8, OutputLen: 10}},
		PromptMode: PromptSynthetic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 1 || res.Report.Requests != 0 {
		t.Fatalf("aborted stream not classified as error: %+v / %v", res.Report.Requests, res.Errors)
	}
}

// inFlightWriter counts its request out of flight when the handler writes
// the terminal [DONE] event, ahead of the flush that shows it to the
// client: the client frees its slot on reading [DONE], before the handler
// returns, so a count dropped on return would overlap the next request's.
type inFlightWriter struct {
	http.ResponseWriter
	cur  *atomic.Int64
	left bool
}

func (w *inFlightWriter) leave() {
	if !w.left {
		w.left = true
		w.cur.Add(-1)
	}
}

func (w *inFlightWriter) Write(b []byte) (int, error) {
	if bytes.HasPrefix(b, []byte("data: [DONE]")) {
		w.leave()
	}
	return w.ResponseWriter.Write(b)
}

func (w *inFlightWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

func TestMaxInFlightCapsConcurrency(t *testing.T) {
	rt, err := runtime.Start(runtime.Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var cur, peak atomic.Int64
	h := server.New(rt, "Qwen2.5-14B")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := cur.Add(1)
		iw := &inFlightWriter{ResponseWriter: w, cur: &cur}
		defer iw.leave()
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		h.ServeHTTP(iw, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	})

	// A burst of simultaneous arrivals: without the cap all 12 would be in
	// flight at once.
	items := make([]workload.Item, 12)
	for i := range items {
		items[i] = workload.Item{PromptLen: 16, OutputLen: 4}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, Options{
		BaseURL:     ts.URL,
		Model:       "Qwen2.5-14B",
		Items:       items,
		PromptMode:  PromptSynthetic,
		MaxInFlight: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if res.Report.Requests != len(items) {
		t.Fatalf("finished %d/%d", res.Report.Requests, len(items))
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak in-flight = %d, cap 2", p)
	}
}

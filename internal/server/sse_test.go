package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	goruntime "runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/runtime"
	"gllm/internal/sched"
)

// appendJSONString must stay byte-identical to encoding/json's default
// string encoding — the SSE chunks it renders replaced a json.Encoder, and
// clients may depend on either output.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"",
		"plain ascii",
		"the of and ", // vocab text with trailing space
		`quotes " and \ backslashes`,
		"newline\n tab\t carriage\r",
		"control \x00 \x01 \x1f chars",
		"html <b>&amp;</b> escaping",
		"unicode: héllo wörld 你好 🚀",
		"line sep \u2028 and para sep \u2029",
		"invalid utf8: \xff\xfe trailing",
		"mixed \xc3 dangling continuation",
		"cmpl-42",
		strings.Repeat("long ", 100),
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJSONString(nil, s)
		if !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q)\n got %s\nwant %s", s, got, want)
		}
	}
}

// appendChunk must render exactly what the seed's json.Encoder-based stream
// produced for each token event (modulo the per-stream created timestamp,
// which both paths now share).
func TestAppendChunkMatchesEncoder(t *testing.T) {
	rt := newTestRuntime(t)
	s := New(rt, "Qwen2.5-14B")
	const created = 1754600000
	events := []runtime.TokenEvent{
		{ReqID: 7, Index: 0, Token: 42, Text: "the "},
		{ReqID: 7, Index: 1, Token: 43, Text: "model ", Finished: true, Reason: runtime.FinishLength},
		{ReqID: 7, Index: 2, Finished: true, Reason: runtime.FinishCancelled}, // abort event: empty text
		{ReqID: 7, Index: 3, Finished: true},                                  // finished without reason defaults to length
	}
	for _, ev := range events {
		finish := ""
		if ev.Finished {
			finish = string(runtime.FinishLength)
			if ev.Reason != "" {
				finish = string(ev.Reason)
			}
		}
		legacy := completionResponse{
			ID:      "cmpl-7",
			Object:  "text_completion",
			Created: created,
			Model:   "Qwen2.5-14B",
			Choices: []completionChoice{{Text: ev.Text, FinishReason: finish}},
		}
		var want bytes.Buffer
		want.WriteString("data: ")
		enc := json.NewEncoder(&want)
		if err := enc.Encode(legacy); err != nil {
			t.Fatal(err)
		}
		want.WriteString("\n")

		got := s.appendChunk(nil, "cmpl-7", created, &ev)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("chunk for %+v\n got %q\nwant %q", ev, got, want.Bytes())
		}
	}
}

func newTestRuntime(t *testing.T) *runtime.Runtime {
	t.Helper()
	rt, err := runtime.Start(runtime.Config{
		Model:           model.Qwen25_14B,
		GPU:             gpu.L20,
		Topo:            network.IntraNode(4, network.PCIe),
		Scheduler:       sched.NewDefaultThrottle(),
		Async:           true,
		TimeScale:       0,
		WatchdogTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt
}

// Client disconnects must not leave goroutines behind: the batched delivery
// path aborts inline through Handle.Cancel instead of spawning a drain
// goroutine per dropped stream (the seed behaviour this guards against).
func TestDisconnectLeaksNoGoroutines(t *testing.T) {
	ts, rt := testServerCfg(t, func(cfg *runtime.Config) {
		cfg.StageFault = func(stage, seq int) time.Duration {
			if stage == 0 {
				return 2 * time.Millisecond
			}
			return 0
		}
	})
	baseline := goruntime.NumGoroutine()
	const drops = 20
	for i := 0; i < drops; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/completions",
			strings.NewReader(`{"prompt_len": 64, "max_tokens": 100000, "stream": true}`))
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		// Read one chunk so the stream is live, then cut the connection.
		buf := make([]byte, 256)
		if _, err := resp.Body.Read(buf); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
		resp.Body.Close()
	}
	// All dropped requests must be reaped...
	deadline := time.After(10 * time.Second)
	for {
		st := rt.Stats()
		if st.Cancelled >= drops && st.Resident == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("dropped requests never reaped: %+v", st)
		case <-time.After(5 * time.Millisecond):
		}
	}
	// ...and the goroutine count must return to (about) the baseline. A
	// small slack absorbs net/http connection-pool churn; drain goroutines
	// would add one per drop.
	for {
		if n := goruntime.NumGoroutine(); n <= baseline+drops/4 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("goroutines = %d, baseline %d: disconnects leak goroutines",
				goruntime.NumGoroutine(), baseline)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// countingWriter is a minimal streaming ResponseWriter: it counts delivered
// token chunks and otherwise discards the bytes. The real net/http chunked
// encoder allocates per flush, which would mask the serving path's own
// allocation behaviour, so the guard drives Server.ServeHTTP directly.
type countingWriter struct {
	header http.Header
	tokens *atomic.Int64
}

func (w *countingWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *countingWriter) Write(p []byte) (int, error) {
	// Every delivered token renders exactly one "text" field; [DONE] none.
	w.tokens.Add(int64(bytes.Count(p, []byte(`"text":`))))
	return len(p), nil
}

func (w *countingWriter) WriteHeader(int) {}
func (w *countingWriter) Flush()          {}

// TestServeSteadyStateAllocsPerToken guards the full HTTP serving path
// (wired into `make check`): with warm pools, streaming a completion through
// ServeHTTP → SubmitBatchedSpec → slab delivery → hand-rolled SSE encoding must
// cost less than one allocation per token — per-request setup (request
// parsing, handle, header map) is real but amortizes out. The seed path cost
// ~10 allocations per token.
func TestServeSteadyStateAllocsPerToken(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; guard runs in normal builds")
	}
	rt := newTestRuntime(t)
	srv := New(rt, "guard-model")
	var delivered atomic.Int64
	serveOne := func(tokens int) {
		body := fmt.Sprintf(`{"prompt_len":128,"max_tokens":%d,"stream":true}`, tokens)
		req, err := http.NewRequest(http.MethodPost, "/v1/completions", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		w := &countingWriter{tokens: &delivered}
		srv.ServeHTTP(w, req)
	}
	for i := 0; i < 4; i++ {
		serveOne(512) // warm the slab, batch, micro-batch and SSE buffer pools
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	goruntime.GC()
	const tokens = 4096
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	start := delivered.Load()
	serveOne(tokens)
	if got := delivered.Load() - start; got != tokens {
		t.Fatalf("delivered %d tokens, want %d", got, tokens)
	}
	goruntime.ReadMemStats(&after)
	perToken := float64(after.Mallocs-before.Mallocs) / tokens
	t.Logf("allocs/token = %.4f (%d mallocs / %d tokens)",
		perToken, after.Mallocs-before.Mallocs, tokens)
	if perToken >= 1 {
		t.Fatalf("HTTP serving path allocates %.3f objects/token (want < 1): "+
			"a per-token allocation crept back in", perToken)
	}
}

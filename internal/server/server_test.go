package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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

func testServer(t *testing.T) (*httptest.Server, *runtime.Runtime) {
	return testServerCfg(t, nil)
}

// testServerCfg builds a server over a runtime with config overrides. The
// runtime is closed before the HTTP listener: httptest's Close waits for
// in-flight handlers, which unblock only when the runtime terminates their
// handles.
func testServerCfg(t *testing.T, mutate func(*runtime.Config)) (*httptest.Server, *runtime.Runtime) {
	t.Helper()
	cfg := runtime.Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := runtime.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(rt, "Qwen2.5-14B"))
	t.Cleanup(func() {
		_ = rt.Close()
		ts.Close()
	})
	return ts, rt
}

func post(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestCompletionNonStreaming(t *testing.T) {
	ts, _ := testServer(t)
	resp := post(t, ts.URL+"/v1/completions", map[string]interface{}{
		"model":      "Qwen2.5-14B",
		"prompt":     "hello world this is a test",
		"max_tokens": 8,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	var out struct {
		ID      string `json:"id"`
		Object  string `json:"object"`
		Choices []struct {
			Text         string `json:"text"`
			FinishReason string `json:"finish_reason"`
		} `json:"choices"`
		Usage struct {
			PromptTokens     int `json:"prompt_tokens"`
			CompletionTokens int `json:"completion_tokens"`
			TotalTokens      int `json:"total_tokens"`
		} `json:"usage"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Object != "text_completion" {
		t.Fatalf("object = %q", out.Object)
	}
	if len(out.Choices) != 1 || out.Choices[0].Text == "" {
		t.Fatalf("choices = %+v", out.Choices)
	}
	if out.Choices[0].FinishReason != "length" {
		t.Fatalf("finish_reason = %q", out.Choices[0].FinishReason)
	}
	if out.Usage.PromptTokens != 6 || out.Usage.CompletionTokens != 8 || out.Usage.TotalTokens != 14 {
		t.Fatalf("usage = %+v", out.Usage)
	}
}

func TestCompletionStreaming(t *testing.T) {
	ts, _ := testServer(t)
	resp := post(t, ts.URL+"/v1/completions", map[string]interface{}{
		"prompt":     "stream me",
		"max_tokens": 5,
		"stream":     true,
	})
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("content type = %q", ct)
	}
	chunks := 0
	sawDone := false
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		payload := strings.TrimPrefix(line, "data: ")
		if payload == "[DONE]" {
			sawDone = true
			break
		}
		var chunk struct {
			Choices []struct {
				Text string `json:"text"`
			} `json:"choices"`
		}
		if err := json.Unmarshal([]byte(payload), &chunk); err != nil {
			t.Fatalf("bad chunk %q: %v", payload, err)
		}
		chunks++
	}
	if chunks != 5 {
		t.Fatalf("chunks = %d, want 5", chunks)
	}
	if !sawDone {
		t.Fatal("no [DONE] sentinel")
	}
}

func TestSyntheticPromptLen(t *testing.T) {
	ts, _ := testServer(t)
	resp := post(t, ts.URL+"/v1/completions", map[string]interface{}{
		"prompt_len": 500,
		"max_tokens": 2,
	})
	defer resp.Body.Close()
	var out struct {
		Usage struct {
			PromptTokens int `json:"prompt_tokens"`
		} `json:"usage"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Usage.PromptTokens != 500 {
		t.Fatalf("prompt tokens = %d", out.Usage.PromptTokens)
	}
}

func TestDefaultMaxTokens(t *testing.T) {
	ts, _ := testServer(t)
	resp := post(t, ts.URL+"/v1/completions", map[string]interface{}{"prompt": "x"})
	defer resp.Body.Close()
	var out struct {
		Usage struct {
			CompletionTokens int `json:"completion_tokens"`
		} `json:"usage"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Usage.CompletionTokens != 16 {
		t.Fatalf("default max_tokens gave %d completion tokens", out.Usage.CompletionTokens)
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := testServer(t)
	// Invalid JSON.
	resp, err := http.Post(ts.URL+"/v1/completions", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json status = %s", resp.Status)
	}
	// Wrong method.
	resp, err = http.Get(ts.URL + "/v1/completions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %s", resp.Status)
	}
	// Oversized request.
	resp = post(t, ts.URL+"/v1/completions", map[string]interface{}{
		"prompt_len": 100_000_000,
		"max_tokens": 5,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized status = %s", resp.Status)
	}
}

// countingBackend counts the submissions that get past the handler.
type countingBackend struct {
	runtimeBackend
	submits atomic.Int32
}

func (b *countingBackend) Submit(ctx context.Context, req SubmitRequest) (*runtime.Handle, error) {
	b.submits.Add(1)
	return b.runtimeBackend.Submit(ctx, req)
}

// A body of exactly maxBodyBytes is served; one byte more is answered 413
// before anything is submitted.
func TestCompletionBodyCap(t *testing.T) {
	_, rt := testServer(t)
	be := &countingBackend{runtimeBackend: runtimeBackend{rt}}
	ts := httptest.NewServer(NewBackend(be, "Qwen2.5-14B"))
	defer ts.Close()

	const envelope = `{"max_tokens":2,"prompt":""}`
	for _, tc := range []struct {
		size, status int
		submits      int32
	}{
		{maxBodyBytes, http.StatusOK, 1},
		{maxBodyBytes + 1, http.StatusRequestEntityTooLarge, 1},
	} {
		body := `{"max_tokens":2,"prompt":"` + strings.Repeat("a", tc.size-len(envelope)) + `"}`
		resp, err := http.Post(ts.URL+"/v1/completions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Error struct{ Type string } `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%d-byte body: status %s, want %d", tc.size, resp.Status, tc.status)
		}
		if tc.status != http.StatusOK && out.Error.Type != "invalid_request_error" {
			t.Fatalf("%d-byte body: error type %q", tc.size, out.Error.Type)
		}
		if got := be.submits.Load(); got != tc.submits {
			t.Fatalf("%d-byte body: %d submissions reached the backend, want %d", tc.size, got, tc.submits)
		}
	}
}

func TestModelsEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Data []struct {
			ID string `json:"id"`
		} `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Data) != 1 || out.Data[0].ID != "Qwen2.5-14B" {
		t.Fatalf("models = %+v", out.Data)
	}
}

func TestHealthAndStatsAndMetrics(t *testing.T) {
	ts, _ := testServer(t)
	// Serve one request so metrics are non-trivial.
	resp := post(t, ts.URL+"/v1/completions", map[string]interface{}{"prompt": "x", "max_tokens": 3})
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health = %s", resp.Status)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st runtime.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(strings.Builder)
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		body.WriteString(scanner.Text())
		body.WriteString("\n")
	}
	resp.Body.Close()
	for _, metric := range []string{
		`gllm_requests_finished_total{reason="length"} 1`,
		"gllm_ttft_seconds_bucket",
		`gllm_ttft_seconds_bucket{le="+Inf"} 1`,
		"gllm_tpot_seconds_sum",
		"gllm_e2el_seconds_count 1",
		"gllm_queue_delay_seconds_bucket",
		`gllm_stage_busy_seconds{stage="3"}`,
		"gllm_bubble_rate",
		"gllm_kv_free_rate",
		"gllm_healthy 1",
	} {
		if !strings.Contains(body.String(), metric) {
			t.Fatalf("metrics missing %s:\n%s", metric, body.String())
		}
	}
}

func TestClientDisconnectMidStream(t *testing.T) {
	// Pace the pipeline (2ms per micro-batch at stage 0) so the disconnect
	// reliably lands mid-generation.
	ts, rt := testServerCfg(t, func(cfg *runtime.Config) {
		cfg.StageFault = func(stage, seq int) time.Duration {
			if stage == 0 {
				return 2 * time.Millisecond
			}
			return 0
		}
	})
	// Open a streaming request and abandon it after the first chunk.
	body := `{"prompt_len": 64, "max_tokens": 1000, "stream": true}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/completions", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	ctx, cancel := context.WithCancel(context.Background())
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	// Read one line then cut the connection.
	buf := make([]byte, 256)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	// The runtime must keep functioning: a fresh request still completes.
	resp2 := post(t, ts.URL+"/v1/completions", map[string]interface{}{
		"prompt": "still alive", "max_tokens": 3,
	})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-disconnect request status = %s", resp2.Status)
	}
	// The abandoned request is cancelled — not generated to completion —
	// and its KV is released.
	deadline := time.After(10 * time.Second)
	for {
		st := rt.Stats()
		if st.Cancelled >= 1 && st.InFlight == 0 && st.RunningDecode == 0 && st.KVFreeRate == 1 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("abandoned request never cancelled: %+v", rt.Stats())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// A client abandoning a non-streaming completion must likewise cancel the
// runtime request (the seed handler blocked on the events channel and the
// request kept generating).
func TestClientDisconnectNonStreaming(t *testing.T) {
	ts, rt := testServerCfg(t, func(cfg *runtime.Config) {
		cfg.StageFault = func(stage, seq int) time.Duration {
			if stage == 0 {
				return 2 * time.Millisecond
			}
			return 0
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	body := `{"prompt_len": 64, "max_tokens": 1000}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/completions", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	deadline := time.After(10 * time.Second)
	for rt.Stats().KVFreeRate == 1 {
		select {
		case <-deadline:
			t.Fatal("request never started")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("cancelled request returned a response")
	}
	for {
		st := rt.Stats()
		if st.Cancelled >= 1 && st.KVFreeRate == 1 && st.Resident == 0 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("abandoned request never cancelled: %+v", rt.Stats())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Saturated admission yields HTTP 429 with a Retry-After hint and the
// OpenAI rate-limit error type.
func TestQueueFullGives429(t *testing.T) {
	ts, rt := testServerCfg(t, func(cfg *runtime.Config) {
		// A cap of 200 tokens, as a fraction of the deployment's capacity.
		cost := gpu.NewCostModel(cfg.Model, cfg.GPU)
		kvCap := cost.KVCapacityTokensPP(cfg.Model.StageLayers(cfg.Topo.GPUs()), 0.9)
		cfg.AdmitKVFactor = 200.5 / float64(kvCap)
		cfg.StageFault = func(stage, seq int) time.Duration { return time.Hour }
	})
	// First request occupies 128 of the 200-token admission budget and
	// never finishes (stalled pipeline).
	go func() {
		resp, err := http.Post(ts.URL+"/v1/completions", "application/json",
			strings.NewReader(`{"prompt_len": 64, "max_tokens": 64}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.After(10 * time.Second)
	for rt.Stats().Resident == 0 {
		select {
		case <-deadline:
			t.Fatal("first request never admitted")
		case <-time.After(time.Millisecond):
		}
	}
	resp := post(t, ts.URL+"/v1/completions", map[string]interface{}{
		"prompt_len": 64, "max_tokens": 64,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After header")
	}
	var e struct {
		Error struct {
			Type string `json:"type"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Type != "rate_limit_error" {
		t.Fatalf("error type = %q", e.Error.Type)
	}
	if rt.Stats().Rejected < 1 {
		t.Fatal("rejection not counted")
	}
}

// An injected stage stall flips /healthz to 503 "degraded".
func TestHealthzDegradedOnStall(t *testing.T) {
	ts, _ := testServerCfg(t, func(cfg *runtime.Config) {
		cfg.WatchdogTimeout = 20 * time.Millisecond
		cfg.StageFault = func(stage, seq int) time.Duration { return time.Hour }
	})
	go func() {
		resp, err := http.Post(ts.URL+"/v1/completions", "application/json",
			strings.NewReader(`{"prompt_len": 64, "max_tokens": 8}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.After(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Status string `json:"status"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable && out.Status == "degraded" {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("healthz never degraded (last: %d %q)", resp.StatusCode, out.Status)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Regression: runtime shutdown must unblock handlers waiting on event
// channels of queued-but-unfinished requests (the seed drain leaked them,
// wedging the HTTP server forever).
func TestShutdownUnblocksPendingHandler(t *testing.T) {
	ts, rt := testServerCfg(t, func(cfg *runtime.Config) {
		cfg.StageFault = func(stage, seq int) time.Duration { return time.Hour }
	})
	type result struct {
		status int
		finish string
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/completions", "application/json",
			strings.NewReader(`{"prompt_len": 64, "max_tokens": 32}`))
		if err != nil {
			resCh <- result{}
			return
		}
		defer resp.Body.Close()
		var out struct {
			Choices []struct {
				FinishReason string `json:"finish_reason"`
			} `json:"choices"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&out)
		finish := ""
		if len(out.Choices) > 0 {
			finish = out.Choices[0].FinishReason
		}
		resCh <- result{status: resp.StatusCode, finish: finish}
	}()
	deadline := time.After(10 * time.Second)
	for rt.Stats().Resident == 0 {
		select {
		case <-deadline:
			t.Fatal("request never admitted")
		case <-time.After(time.Millisecond):
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-resCh:
		if res.status != http.StatusOK || res.finish != "shutdown" {
			t.Fatalf("handler returned status %d finish %q", res.status, res.finish)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler still blocked after runtime Close")
	}
}

func TestConcurrentHTTPLoad(t *testing.T) {
	ts, _ := testServer(t)
	const n = 24
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(k int) {
			resp, err := http.Post(ts.URL+"/v1/completions", "application/json",
				strings.NewReader(fmt.Sprintf(`{"prompt_len": %d, "max_tokens": %d}`, 50+k, 2+k%5)))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %s", resp.Status)
				return
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

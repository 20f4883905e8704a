package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gllm/internal/runtime"
	"gllm/internal/server"
)

// fastProbe is the remote config used across these tests: tight probe
// cadence so health transitions resolve in milliseconds.
func fastProbe(baseURL string) RemoteConfig {
	return RemoteConfig{
		BaseURL:          baseURL,
		ConnectTimeout:   2 * time.Second,
		ProbeInterval:    10 * time.Millisecond,
		FailureThreshold: 2,
	}
}

// newStubRemote serves the wire surface a Remote consumes — /pressure,
// /stats, /matchprefix, and a paced SSE /v1/completions — without a real
// runtime behind it, so stream timing is deterministic.
func newStubRemote(pace time.Duration) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/pressure", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(runtime.Pressure{KVFree: 1, Health: runtime.HealthOK})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(runtime.Snapshot{KVFreeRate: 1, Health: runtime.HealthOK})
	})
	mux.HandleFunc("/matchprefix", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]int{"match": 7})
	})
	mux.HandleFunc("/v1/completions", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			MaxTokens int `json:"max_tokens"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fl := w.(http.Flusher)
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		fl.Flush()
		for i := 0; i < req.MaxTokens; i++ {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(pace):
			}
			finish := ""
			if i == req.MaxTokens-1 {
				finish = `,"finish_reason":"length"`
			}
			fmt.Fprintf(w, "data: {\"choices\":[{\"text\":\"tok \",\"index\":0%s}]}\n\n", finish)
			fl.Flush()
		}
		fmt.Fprint(w, "data: [DONE]\n\n")
		fl.Flush()
	})
	return httptest.NewServer(mux)
}

// drainHandle drains a handle to completion within timeout, failing the
// test on a hang; returns real (non-empty Text) tokens and the terminal
// reason.
func drainHandle(t *testing.T, h *runtime.Handle, timeout time.Duration) (int, runtime.FinishReason) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	tokens := 0
	for {
		evs := h.Next(ctx)
		if evs == nil {
			break
		}
		for _, ev := range evs {
			if ev.Text != "" {
				tokens++
			}
		}
	}
	if ctx.Err() != nil {
		t.Fatalf("handle hung: drained %d tokens before timeout", tokens)
	}
	return tokens, h.FinishReason()
}

func waitRemote(t *testing.T, what string, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if f() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func newRemote(t *testing.T, cfg RemoteConfig) *Remote {
	t.Helper()
	rem, err := NewRemote(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rem.Close() })
	return rem
}

// A Remote fronting a live gllm-server serves a full stream through the
// proxy handle: every token arrives, the finish reason survives the wire,
// and the probing, stats, and prefix-match surfaces all round-trip.
func TestRemoteStreamsAgainstLiveServer(t *testing.T) {
	rt := startReplica(t, nil)
	srv := httptest.NewServer(server.New(rt, "m"))
	defer srv.Close()
	rem := newRemote(t, fastProbe(srv.URL))

	if got := rem.Pressure().Health; got != runtime.HealthOK {
		t.Fatalf("initial probe health = %q, want ok", got)
	}

	const want = 32
	h, err := rem.SubmitBatchedSpec(context.Background(), runtime.SubmitSpec{PromptLen: 64, MaxTokens: want, PrefixGroup: 9, SharedPrefixLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	tokens, reason := drainHandle(t, h, 10*time.Second)
	if tokens != want || reason != runtime.FinishLength {
		t.Fatalf("drained %d tokens, reason %q; want %d, length", tokens, reason, want)
	}

	st := rem.Stats()
	if st.Finished != 1 {
		t.Fatalf("remote Stats().Finished = %d, want 1", st.Finished)
	}
	// The wire answer must agree with the backing runtime's own view.
	if got, direct := rem.MatchPrefix(9, 16), rt.MatchPrefix(9, 16); got != direct {
		t.Fatalf("MatchPrefix over HTTP = %d, direct = %d", got, direct)
	}

	sc := rem.Metrics().Scrape()
	if sc.ByReason["length"] != 1 || sc.CompletedOutputTokens != want || sc.PromptTokens != 64 {
		t.Fatalf("scrape = %+v", sc)
	}
	if sc.TTFT.Count != 1 || sc.TTFT.Sum <= 0 || sc.E2E.Sum < sc.TTFT.Sum {
		t.Fatalf("latency fields not measured: %+v", sc)
	}
}

// A router mixing a remote replica with an in-process one keeps the full
// cluster audit clean: streams and tokens are conserved across the HTTP
// boundary, and a graceful drain leaks nothing on either side.
func TestRemoteRouterMixedReplicasAudit(t *testing.T) {
	remoteRT := startReplica(t, nil)
	srv := httptest.NewServer(server.New(remoteRT, "m"))
	defer srv.Close()
	rem := newRemote(t, fastProbe(srv.URL))
	local := startReplica(t, nil)

	router := New(Config{})
	if _, err := router.Add("remote", rem); err != nil {
		t.Fatal(err)
	}
	if _, err := router.Add("local", local); err != nil {
		t.Fatal(err)
	}

	var audit Audit
	const streams = 12
	submit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			req := Request{PromptLen: 48, MaxTokens: 8 + i%5, PrefixGroup: int64(1 + i%3), SharedPrefixLen: 24}
			h, _, err := router.Submit(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			tokens, reason := drainHandle(t, h, 10*time.Second)
			audit.StreamDone(h.ID, tokens, req.MaxTokens, reason)
		}
	}
	submit(streams)

	// Drain the remote mid-run: its transport detaches, traffic continues
	// on the survivor, and the audit must still balance across both.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := router.Drain(ctx, "remote"); err != nil {
		t.Fatal(err)
	}
	submit(streams / 2)

	if err := router.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	reps := append(router.Replicas(), router.Retired()...)
	if err := audit.Verify(streams+streams/2, reps); err != nil {
		t.Fatal(err)
	}
}

// Killing the remote process mid-stream terminates the in-flight handle
// with FinishDisconnected (bounded, never hung), flips the replica to
// HealthUnreachable so the router stops picking it, and leaves survivor
// streams untouched: none dropped, none double-served.
func TestRemoteKillMidStreamSurvivorsUnaffected(t *testing.T) {
	victim := newStubRemote(2 * time.Millisecond)
	rem := newRemote(t, fastProbe(victim.URL))
	router := New(Config{})
	if _, err := router.Add("victim", rem); err != nil {
		t.Fatal(err)
	}

	// Only the victim exists yet, so the long-lived stream lands on it.
	h, rep, err := router.Submit(context.Background(), Request{PromptLen: 8, MaxTokens: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "victim" {
		t.Fatalf("stream landed on %q", rep.ID)
	}
	// First token observed: the stream is live on the wire.
	first := h.Next(context.Background())
	if first == nil {
		t.Fatal("no first slab")
	}

	local := startReplica(t, nil)
	if _, err := router.Add("survivor", local); err != nil {
		t.Fatal(err)
	}

	// Kill the remote: drop its active connections, then the listener.
	victim.CloseClientConnections()
	victim.Close()

	tokens, reason := drainHandle(t, h, 5*time.Second)
	if reason != runtime.FinishDisconnected {
		t.Fatalf("reason = %q after %d more tokens, want disconnected", reason, tokens)
	}
	waitRemote(t, "victim unreachable", func() bool {
		return rem.Pressure().Health == HealthUnreachable
	})

	// New work must route to the survivor and complete exactly once each.
	const n = 6
	for i := 0; i < n; i++ {
		want := 5 + i
		h, rep, err := router.Submit(context.Background(), Request{PromptLen: 16, MaxTokens: want})
		if err != nil {
			t.Fatal(err)
		}
		if rep.ID != "survivor" {
			t.Fatalf("routed to %q with victim down", rep.ID)
		}
		tokens, reason := drainHandle(t, h, 10*time.Second)
		if tokens != want || reason != runtime.FinishLength {
			t.Fatalf("survivor stream %d: %d tokens, reason %q; want %d, length", i, tokens, reason, want)
		}
	}
	if st := local.Stats(); st.Finished != n || st.Cancelled != 0 {
		t.Fatalf("survivor finished %d / cancelled %d, want %d / 0", st.Finished, st.Cancelled, n)
	}
}

// A downed remote recovers automatically: once something is listening at
// the same address again, the prober flips the replica back to routable
// and submissions succeed without any manual reset.
func TestRemoteUnreachableThenRecovers(t *testing.T) {
	stub := newStubRemote(0)
	addr := stub.Listener.Addr().String()
	rem := newRemote(t, fastProbe(stub.URL))
	if got := rem.Pressure().Health; got != runtime.HealthOK {
		t.Fatalf("initial health = %q", got)
	}

	stub.Close()
	waitRemote(t, "unreachable after server death", func() bool {
		return rem.Pressure().Health == HealthUnreachable
	})
	if _, err := rem.SubmitBatchedSpec(context.Background(), runtime.SubmitSpec{PromptLen: 8, MaxTokens: 4}); !errors.Is(err, runtime.ErrStopped) {
		t.Fatalf("submit to dead remote: %v, want ErrStopped (re-pick)", err)
	}

	// Restart on the same port.
	var l net.Listener
	waitRemote(t, "port rebind", func() bool {
		var err error
		l, err = net.Listen("tcp", addr)
		return err == nil
	})
	stub2 := newStubRemote(0)
	handler := stub2.Config.Handler
	stub2.Close()
	revived := &http.Server{Handler: handler}
	go revived.Serve(l)
	defer revived.Close()

	waitRemote(t, "recovery after restart", func() bool {
		return rem.Pressure().Health == runtime.HealthOK
	})
	h, err := rem.SubmitBatchedSpec(context.Background(), runtime.SubmitSpec{PromptLen: 8, MaxTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tokens, reason := drainHandle(t, h, 5*time.Second); tokens != 4 || reason != runtime.FinishLength {
		t.Fatalf("post-recovery stream: %d tokens, %q", tokens, reason)
	}
}

// Submit-time failures map onto the router's retry classification: 429 is
// backpressure (ErrQueueFull), 503 and connect failures are re-pick
// signals (ErrStopped), and anything else is terminal.
func TestRemoteSubmitErrorMapping(t *testing.T) {
	status := func(code int) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(code) }
	}
	cases := []struct {
		name    string
		handler http.Handler
		wantIs  error
	}{
		{"429 is queue-full", status(http.StatusTooManyRequests), runtime.ErrQueueFull},
		{"503 is stopped", status(http.StatusServiceUnavailable), runtime.ErrStopped},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(tc.handler)
			defer srv.Close()
			rem := newRemote(t, fastProbe(srv.URL))
			_, err := rem.SubmitBatchedSpec(context.Background(), runtime.SubmitSpec{PromptLen: 8, MaxTokens: 4})
			if !errors.Is(err, tc.wantIs) {
				t.Fatalf("err = %v, want %v", err, tc.wantIs)
			}
		})
	}

	t.Run("connection refused is stopped", func(t *testing.T) {
		srv := httptest.NewServer(status(http.StatusOK))
		url := srv.URL
		srv.Close()
		rem := newRemote(t, fastProbe(url))
		_, err := rem.SubmitBatchedSpec(context.Background(), runtime.SubmitSpec{PromptLen: 8, MaxTokens: 4})
		if !errors.Is(err, runtime.ErrStopped) {
			t.Fatalf("err = %v, want ErrStopped", err)
		}
	})

	t.Run("unexpected status is terminal", func(t *testing.T) {
		srv := httptest.NewServer(status(http.StatusTeapot))
		defer srv.Close()
		rem := newRemote(t, fastProbe(srv.URL))
		_, err := rem.SubmitBatchedSpec(context.Background(), runtime.SubmitSpec{PromptLen: 8, MaxTokens: 4})
		if err == nil || errors.Is(err, runtime.ErrQueueFull) || errors.Is(err, runtime.ErrStopped) {
			t.Fatalf("err = %v, want terminal non-retryable", err)
		}
	})
}

// The per-attempt connect timeout bounds how long a hung replica can stall
// one submission: headers must arrive within ConnectTimeout, and the
// failure reads as ErrStopped so the router re-picks immediately.
func TestRemoteConnectTimeout(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // hold headers until the test ends
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release) // unblock handlers before srv.Close waits on them

	cfg := fastProbe(srv.URL)
	cfg.ConnectTimeout = 50 * time.Millisecond
	rem := newRemote(t, cfg)
	start := time.Now()
	_, err := rem.SubmitBatchedSpec(context.Background(), runtime.SubmitSpec{PromptLen: 8, MaxTokens: 4})
	if !errors.Is(err, runtime.ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("submit took %v despite 50ms connect timeout", elapsed)
	}
}

// Handle.Cancel on a remote stream propagates: the handle terminates with
// FinishCancelled and the server sees the client go away (its request
// context fires), so the remote generation is aborted too.
func TestRemoteCancelMidStream(t *testing.T) {
	serverSawCancel := make(chan struct{})
	stub := newStubRemote(2 * time.Millisecond)
	inner := stub.Config.Handler
	stub.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/completions" {
			defer close(serverSawCancel)
		}
		inner.ServeHTTP(w, r)
	})
	defer stub.Close()
	rem := newRemote(t, fastProbe(stub.URL))

	h, err := rem.SubmitBatchedSpec(context.Background(), runtime.SubmitSpec{PromptLen: 8, MaxTokens: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if h.Next(context.Background()) == nil {
		t.Fatal("no first slab")
	}
	h.Cancel()
	if _, reason := drainHandle(t, h, 5*time.Second); reason != runtime.FinishCancelled {
		t.Fatalf("reason = %q, want cancelled", reason)
	}
	select {
	case <-serverSawCancel:
	case <-time.After(5 * time.Second):
		t.Fatal("server handler never unblocked after cancel")
	}
	if by := rem.Metrics().ByReason(); len(by) != 1 || by[string(runtime.FinishCancelled)] != 1 {
		t.Fatalf("finish reasons = %v", by)
	}
}

// Shutdown is a transport drain: new submissions are refused with
// ErrStopped, in-flight streams complete naturally under a generous
// deadline, and an expired deadline aborts the remainder with
// FinishShutdown instead of leaving them hanging.
func TestRemoteShutdownDrainSemantics(t *testing.T) {
	t.Run("in-flight completes", func(t *testing.T) {
		stub := newStubRemote(time.Millisecond)
		defer stub.Close()
		rem := newRemote(t, fastProbe(stub.URL))
		h, err := rem.SubmitBatchedSpec(context.Background(), runtime.SubmitSpec{PromptLen: 8, MaxTokens: 20})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			done <- rem.Shutdown(ctx)
		}()
		tokens, reason := drainHandle(t, h, 10*time.Second)
		if tokens != 20 || reason != runtime.FinishLength {
			t.Fatalf("draining stream: %d tokens, %q", tokens, reason)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if _, err := rem.SubmitBatchedSpec(context.Background(), runtime.SubmitSpec{PromptLen: 8, MaxTokens: 4}); !errors.Is(err, runtime.ErrStopped) {
			t.Fatalf("submit after drain: %v, want ErrStopped", err)
		}
	})

	t.Run("expired deadline aborts", func(t *testing.T) {
		stub := newStubRemote(2 * time.Millisecond)
		defer stub.Close()
		rem := newRemote(t, fastProbe(stub.URL))
		h, err := rem.SubmitBatchedSpec(context.Background(), runtime.SubmitSpec{PromptLen: 8, MaxTokens: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if h.Next(context.Background()) == nil {
			t.Fatal("no first slab")
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already expired: abort immediately
		if err := rem.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		if _, reason := drainHandle(t, h, 5*time.Second); reason != runtime.FinishShutdown {
			t.Fatalf("reason = %q, want shutdown", reason)
		}
	})
}

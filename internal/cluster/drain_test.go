package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gllm/internal/runtime"
	"gllm/internal/stats"
)

// drainCount drains a batched handle, returning the real tokens delivered
// (non-empty Text) and the terminal reason.
func drainCount(t *testing.T, h *runtime.Handle) (int, runtime.FinishReason) {
	t.Helper()
	n, reason, err := drainStream(h, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return n, reason
}

// TestDrainReplaceZeroDroppedTokens is the deterministic (seeded)
// integration test behind the drain/replace guarantee: three real
// replicas serve a seeded multi-turn conversation workload while one
// replica is drained and replaced mid-run. Every stream must complete
// with exactly its requested tokens — in-flight work on the drained
// replica finishes, orphaned prefix groups re-home — and the cluster
// audit (stream conservation, token conservation, KV-leak freedom across
// replicas) must pass.
func TestDrainReplaceZeroDroppedTokens(t *testing.T) {
	const (
		seed          = 0xd4a1
		conversations = 18
		turnsPer      = 3
	)
	// Round-robin under the affinity policy makes placement a count, not a
	// race on instantaneous load: b homes exactly a third of the
	// conversations, and a third of those it orphans re-home on d.
	r := New(Config{
		Policy: NewPrefixAffinity(NewRoundRobin()),
		Retry: RetryPolicy{MaxAttempts: 8, BaseDelay: time.Millisecond,
			MaxDelay: 10 * time.Millisecond, Budget: time.Minute},
		Seed: seed,
	})
	for _, id := range []string{"a", "b", "c"} {
		if _, err := r.Add(id, startReplica(t, nil)); err != nil {
			t.Fatal(err)
		}
	}

	// Pre-generate the seeded trace: per conversation, turnsPer turns with
	// growing prompts sharing the conversation prefix.
	rng := stats.NewRNG(seed)
	traces := make([][]Request, conversations)
	for c := range traces {
		turns := make([]Request, turnsPer)
		prev := 0
		promptLen := 48 + rng.Intn(80)
		for i := range turns {
			turns[i] = Request{
				PromptLen:       promptLen,
				MaxTokens:       4 + rng.Intn(12),
				PrefixGroup:     int64(c + 1),
				SharedPrefixLen: prev,
			}
			prev = promptLen
			promptLen += 16 + rng.Intn(32)
		}
		traces[c] = turns
	}

	// Every conversation's last turn waits for the replacement, so d is
	// routable while a third of the run is still to be placed: at
	// TimeScale=0 all 54 tiny streams could otherwise finish before Replace
	// returns, and whether d ever took traffic was a race.
	replaced := make(chan struct{})
	var (
		audit     Audit
		submitted atomic.Int64
		placed    atomic.Int64 // conversations whose first turn has a home
		wg        sync.WaitGroup
	)
	for _, turns := range traces {
		wg.Add(1)
		go func(turns []Request) {
			defer wg.Done()
			for i, req := range turns {
				if i == len(turns)-1 {
					<-replaced
				}
				submitted.Add(1)
				h, _, err := r.Submit(context.Background(), req)
				if i == 0 {
					placed.Add(1)
				}
				if err != nil {
					if !errors.Is(err, runtime.ErrQueueFull) {
						t.Errorf("submit: %v", err)
					}
					audit.RejectedSubmit()
					continue
				}
				n, reason := drainCount(t, h)
				audit.StreamDone(h.ID, n, req.MaxTokens, reason)
				if reason != runtime.FinishLength {
					t.Errorf("stream %d finished %q, want length", h.ID, reason)
				}
				if n != req.MaxTokens {
					t.Errorf("stream %d delivered %d of %d tokens", h.ID, n, req.MaxTokens)
				}
			}
		}(turns)
	}

	// Once every conversation has a home, roll replica b out for a fresh d
	// — the zero-downtime replace. In-flight streams on b keep delivering.
	for placed.Load() < conversations {
		time.Sleep(time.Millisecond)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := r.Replace(drainCtx, "b", "d", startReplica(t, nil))
	close(replaced)
	if err != nil {
		t.Fatalf("replace: %v", err)
	}

	wg.Wait()
	if err := r.Shutdown(drainCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	all := append(r.Replicas(), r.Retired()...)
	if err := audit.Verify(submitted.Load(), all); err != nil {
		t.Fatalf("cluster audit failed:\n%v", err)
	}
	streams, completed, aborted, _ := audit.Streams()
	if streams != conversations*turnsPer {
		t.Fatalf("streams = %d, want %d", streams, conversations*turnsPer)
	}
	if aborted != 0 {
		t.Fatalf("aborted = %d, want 0 (graceful drain must not abort)", aborted)
	}

	// The replacement must actually have taken traffic, and the completed
	// records across replicas (retired b included) must cover every stream.
	if rep := r.Retired(); len(rep) != 4 {
		t.Fatalf("retired = %d replicas after shutdown, want 4", len(rep))
	}
	if n := int64(r.Scrape().ByReason["length"]); n != completed {
		t.Fatalf("completed records = %d, want %d", n, completed)
	}
	d := func() *Replica {
		for _, rep := range all {
			if rep.ID == "d" {
				return rep
			}
		}
		return nil
	}()
	if d == nil || d.Routed() == 0 {
		t.Fatal("replacement replica d never took traffic")
	}
}

// A submission the transport admitted before a drain began is in flight
// even while its POST is still connecting. Shutdown must wait for it and
// let it stream whole; Close must abort it once it connects instead of
// leaving it running behind a closed transport. (Admission used to be a
// flag check with inflight.Add after the connect, so both returned early —
// the WaitGroup misuse the race detector reports.)
func TestRemoteDrainCoversConnectingSubmission(t *testing.T) {
	for _, graceful := range []bool{true, false} {
		stub := newStubRemote(2 * time.Millisecond)
		entered, gate := make(chan struct{}), make(chan struct{})
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/completions" {
				close(entered)
				<-gate
			}
			stub.Config.Handler.ServeHTTP(w, r)
		}))
		rem := newRemote(t, fastProbe(srv.URL))

		type submitted struct {
			h   *runtime.Handle
			err error
		}
		sub := make(chan submitted, 1)
		go func() {
			h, err := rem.SubmitBatchedSpec(context.Background(), runtime.SubmitSpec{PromptLen: 8, MaxTokens: 200})
			sub <- submitted{h, err}
		}()
		<-entered
		stopped := make(chan error, 1)
		go func() {
			if graceful {
				stopped <- rem.Shutdown(context.Background())
			} else {
				stopped <- rem.Close()
			}
		}()
		select {
		case <-stopped:
			t.Fatalf("graceful=%v: transport stopped with an admitted submission still connecting", graceful)
		case <-time.After(50 * time.Millisecond):
		}
		close(gate)
		s := <-sub
		if s.err != nil {
			t.Fatal(s.err)
		}
		tokens, reason := drainHandle(t, s.h, 10*time.Second)
		if graceful && (tokens != 200 || reason != runtime.FinishLength) {
			t.Fatalf("drained stream delivered %d/200 tokens (%q)", tokens, reason)
		}
		if !graceful && reason != runtime.FinishShutdown {
			t.Fatalf("stream that connected after Close finished %q after %d tokens, want shutdown", reason, tokens)
		}
		if err := <-stopped; err != nil {
			t.Fatal(err)
		}
		srv.Close()
		stub.Close()
	}
}

package cluster

// End-to-end smokes: the cluster driven the way an operator drives it —
// real HTTP/SSE through the Frontend, admin calls mid-flight, and, for the
// two process-level ones, real gllm-server children that get drained,
// SIGKILLed and revived. They run in tier-1 and, with the rest of this
// package, under -race.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"gllm/internal/client"
	"gllm/internal/metrics"
	"gllm/internal/obs"
	"gllm/internal/runtime"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

const (
	smokeSeed  = 20250704
	smokeModel = "Qwen2.5-14B"
	smokeDrain = 30 * time.Second // the binaries' default -drain-timeout
)

// TestSelfCheck: three in-process replicas behind the prefix policy serve
// multi-turn conversations over the full HTTP/SSE path while r1 is drained
// through the admin endpoint; nothing may be dropped, rejected or leaked.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("boots three replica runtimes and replays a trace over HTTP")
	}
	pol, err := ByName("prefix", smokeSeed)
	if err != nil {
		t.Fatal(err)
	}
	rr := obs.NewReqRecorder(0)
	traced := func(cfg *runtime.Config) { cfg.ReqSpans = rr }
	fe, base := serveFrontend(t, Config{Policy: pol, Seed: smokeSeed, ReqSpans: rr}, smokeDrain, nil,
		[]string{"r0", "r1", "r2"}, startReplica(t, traced), startReplica(t, traced), startReplica(t, traced))

	// Multi-turn prefix-group conversations, compressed to ~1 s of replay.
	trace := workload.Conversations(stats.NewRNG(smokeSeed), workload.ConversationSpec{
		Dataset: workload.ShareGPT, Rate: 40, Window: time.Second,
		MaxTurns: 3, ThinkMean: 100 * time.Millisecond, FollowUpLen: 24, MaxContext: 2048,
	})
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	drained := make(chan string, 1)
	go func() {
		time.Sleep(300 * time.Millisecond) // the replay is underway
		resp, err := http.Post(base+"/cluster/drain?id=r1", "", nil)
		if err != nil {
			drained <- err.Error()
			return
		}
		resp.Body.Close()
		drained <- resp.Status
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := client.Run(ctx, client.Options{
		BaseURL: base, Model: smokeModel, Items: trace,
		PromptMode: client.PromptSynthetic, MaxInFlight: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if status := <-drained; status != "200 OK" {
		t.Fatalf("drain r1: %s", status)
	}
	if len(res.Errors) > 0 {
		t.Fatalf("%d stream errors, first: %v", len(res.Errors), res.Errors[0])
	}
	if res.Rejected > 0 {
		t.Fatalf("%d rejections at trivial load", res.Rejected)
	}
	var audit Audit
	for _, rec := range res.Collector.Records() {
		audit.StreamDone(rec.ID, rec.OutputTokens, trace[rec.ID].OutputLen, runtime.FinishReason(rec.FinishReason))
	}

	// The drained replica is retired, the survivors serve; after a full
	// drain every stream is accounted for token by token and no KV leaked.
	if retired := replicaIDs(fe.router.Retired()); len(retired) != 1 || retired[0] != "r1" {
		t.Fatalf("retired = %v, want [r1]", retired)
	}
	if active := replicaIDs(fe.router.Replicas()); len(active) != 2 {
		t.Fatalf("active = %v, want two survivors", active)
	}
	shutdown(t, fe.router)
	if err := audit.Verify(int64(len(trace)), fe.router.Retired()); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// shutdown drains every replica of the router within the graceful window.
func shutdown(t *testing.T, r *Router) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), smokeDrain)
	defer cancel()
	if err := r.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// serverBin is the gllm-server binary the process-level smokes spawn,
// built once per test process into a directory TestMain removes.
var serverBin struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	os.RemoveAll(serverBin.dir)
	os.Exit(code)
}

// buildServer compiles gllm/cmd/gllm-server from this tree (the way
// TestBenchmarkModuleBuilds shells out to go) and returns the binary path.
func buildServer(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and spawns gllm-server processes")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	serverBin.once.Do(func() {
		if serverBin.dir, serverBin.err = os.MkdirTemp("", "gllm-smoke-"); serverBin.err != nil {
			return
		}
		out, err := exec.Command(goBin, "build", "-o", serverBin.dir, "gllm/cmd/gllm-server").CombinedOutput()
		if err != nil {
			serverBin.err = fmt.Errorf("go build gllm/cmd/gllm-server: %v\n%s", err, out)
		}
	})
	if serverBin.err != nil {
		t.Fatal(serverBin.err)
	}
	return filepath.Join(serverBin.dir, "gllm-server")
}

// child is one spawned gllm-server process.
type child struct {
	cmd  *exec.Cmd
	port int
	base string // http://127.0.0.1:<port>
}

// spawnServer starts one gllm-server child on port (0 picks a free one)
// with a slowed cost model (-time-scale 0.1) so streams live long enough to
// drain and kill mid-flight, and waits until it answers /healthz. The child
// is killed and reaped when the test ends, however it ends.
func spawnServer(t *testing.T, bin string, port int) child {
	t.Helper()
	if port == 0 {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		port = l.Addr().(*net.TCPAddr).Port
		l.Close() // released for the child to bind
	}
	cmd := exec.Command(bin, "-port", strconv.Itoa(port), "-model-path", smokeModel, "-pp", "2",
		"-sched", "gllm", "-time-scale", "0.1", "-enable-prefix-cache", "-log-level", "warn")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill(); _ = cmd.Wait() })
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return child{cmd, port, base}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server at %s not healthy within 15s", base)
		}
	}
}

// smokeRemote is the transport for one spawned server.
func smokeRemote(t *testing.T, base string, probe time.Duration, rr *obs.ReqRecorder) *Remote {
	t.Helper()
	return newRemote(t, RemoteConfig{BaseURL: base, Model: smokeModel, ProbeInterval: probe, ReqSpans: rr})
}

// submitUntilOn submits req until a stream lands on the replica named id,
// passing every other stream to skip, and returns that stream's handle.
func submitUntilOn(t *testing.T, r *Router, id string, req Request, skip func(*runtime.Handle)) *runtime.Handle {
	t.Helper()
	for tries := 0; tries < 10; tries++ {
		h, rep, err := r.Submit(context.Background(), req)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if rep.ID == id {
			return h
		}
		skip(h)
	}
	t.Fatalf("no stream landed on %s in 10 submissions", id)
	return nil
}

// wantStream drains h on the test goroutine and requires exactly want
// tokens ending in "length".
func wantStream(t *testing.T, h *runtime.Handle, want int) {
	t.Helper()
	if tokens, reason := drainHandle(t, h, 30*time.Second); tokens != want || reason != runtime.FinishLength {
		t.Fatalf("stream %d delivered %d/%d tokens (%q)", h.ID, tokens, want, reason)
	}
}

// TestRemoteSmoke exercises the remote transport's fault matrix against
// live processes: two gllm-server children plus one in-process replica
// behind one round-robin router.
//
//  1. conversation traffic across all three, remoteA drained mid-flight —
//     the audit must prove zero dropped tokens and no KV leak across the
//     HTTP boundary;
//  2. remoteB SIGKILLed mid-stream — the handle must end "disconnected"
//     promptly (never hang), the replica must read unreachable, and the
//     survivor must keep serving exactly-once streams;
//  3. a fresh process on the same port — the prober must flip remoteB back
//     to routable with no reset, and a stream must complete on it.
func TestRemoteSmoke(t *testing.T) {
	bin := buildServer(t)
	a, b := spawnServer(t, bin, 0), spawnServer(t, bin, 0)
	r := New(Config{Policy: NewRoundRobin(), Seed: smokeSeed})
	t.Cleanup(func() { r.Close() })
	if _, err := r.Add("remoteA", smokeRemote(t, a.base, 50*time.Millisecond, nil)); err != nil {
		t.Fatal(err)
	}
	repB, err := r.Add("remoteB", smokeRemote(t, b.base, 50*time.Millisecond, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add("local", startReplica(t, nil)); err != nil { // full speed
		t.Fatal(err)
	}

	// Phase 1.
	trace := workload.Conversations(stats.NewRNG(smokeSeed), workload.ConversationSpec{
		Dataset: workload.ShareGPT, Rate: 16, Window: time.Second,
		MaxTurns: 3, ThinkMean: 50 * time.Millisecond, FollowUpLen: 24, MaxContext: 1024,
	})
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	var (
		audit Audit
		wg    sync.WaitGroup
	)
	drained := make(chan error, 1)
	go func() {
		time.Sleep(400 * time.Millisecond) // mid-flight
		ctx, cancel := context.WithTimeout(context.Background(), smokeDrain)
		defer cancel()
		drained <- r.Drain(ctx, "remoteA")
	}()
	sem := make(chan struct{}, 16)
	for _, it := range trace {
		wg.Add(1)
		sem <- struct{}{}
		go func(it workload.Item) {
			defer wg.Done()
			defer func() { <-sem }()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			h, _, err := r.Submit(ctx, Request{
				PromptLen: it.PromptLen, MaxTokens: it.OutputLen,
				PrefixGroup: it.PrefixGroup, SharedPrefixLen: it.SharedPrefixLen,
			})
			if err != nil {
				audit.RejectedSubmit()
				t.Errorf("phase 1 submit: %v", err)
				return
			}
			tokens, reason, err := drainStream(h, time.Minute)
			if err != nil {
				t.Error(err)
				return
			}
			audit.StreamDone(h.ID, tokens, it.OutputLen, reason)
		}(it)
	}
	wg.Wait()
	if err := <-drained; err != nil {
		t.Fatalf("drain remoteA: %v", err)
	}
	if err := audit.Verify(int64(len(trace)), append(r.Replicas(), r.Retired()...)); err != nil {
		t.Fatalf("audit after draining remoteA mid-flight: %v", err)
	}

	// Phase 2.
	cancelled := func(h *runtime.Handle) {
		h.Cancel()
		drainHandle(t, h, 30*time.Second)
	}
	h := submitUntilOn(t, r, "remoteB", Request{PromptLen: 64, MaxTokens: 4000}, cancelled)
	firstCtx, firstCancel := context.WithTimeout(context.Background(), 30*time.Second)
	first := h.Next(firstCtx)
	firstCancel()
	if first == nil {
		t.Fatal("no tokens from remoteB before the kill")
	}
	if err := b.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = b.cmd.Wait()
	if tokens, reason := drainHandle(t, h, 15*time.Second); reason != runtime.FinishDisconnected {
		t.Fatalf("killed stream finished %q after %d tokens, want disconnected", reason, tokens)
	}
	waitRemote(t, "remoteB to read unreachable", func() bool { return repB.Pressure().Health == HealthUnreachable })
	for i := 0; i < 4; i++ {
		h, rep, err := r.Submit(context.Background(), Request{PromptLen: 32, MaxTokens: 12 + i})
		if err != nil {
			t.Fatalf("survivor submit: %v", err)
		}
		if rep.ID != "local" {
			t.Fatalf("stream routed to %q with remoteB down", rep.ID)
		}
		wantStream(t, h, 12+i)
	}

	// Phase 3.
	spawnServer(t, bin, b.port)
	waitRemote(t, "the prober to revive remoteB", func() bool { return repB.Pressure().Health == runtime.HealthOK })
	whole := func(h *runtime.Handle) { wantStream(t, h, 8) }
	whole(submitUntilOn(t, r, "remoteB", Request{PromptLen: 16, MaxTokens: 8}, whole))
	shutdown(t, r)
}

// TestTraceSmoke exercises cluster-wide tracing and metrics federation
// across processes: a remote-only router (every request crosses the HTTP
// hop) behind the Frontend, conversation traffic over SSE, then
//
//  1. the federated /metrics page parses as Prometheus text 0.0.4 and
//     carries per-replica-labeled series plus nonzero gllm_router_* series;
//  2. /cluster/timeline answers with samples;
//  3. the merged Chrome trace decodes, passes the request-trace validator
//     (one router root per trace, no overlapping series, replica spans
//     inside the root up to clock skew), and at least one trace carries
//     spans from both sides of the hop.
func TestTraceSmoke(t *testing.T) {
	bin := buildServer(t)
	a, b := spawnServer(t, bin, 0), spawnServer(t, bin, 0)
	rr := obs.NewReqRecorder(0)
	fe, base := serveFrontend(t, Config{Policy: NewRoundRobin(), Seed: smokeSeed, ReqSpans: rr}, smokeDrain, nil,
		[]string{"remote0", "remote1"}, smokeRemote(t, a.base, 0, rr), smokeRemote(t, b.base, 0, rr))

	trace := workload.Conversations(stats.NewRNG(smokeSeed), workload.ConversationSpec{
		Dataset: workload.ShareGPT, Rate: 8, Window: 500 * time.Millisecond,
		MaxTurns: 2, ThinkMean: 50 * time.Millisecond, FollowUpLen: 16, MaxContext: 512,
	})
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := client.Run(ctx, client.Options{
		BaseURL: base, Model: smokeModel, Items: trace,
		PromptMode: client.PromptSynthetic, MaxInFlight: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) > 0 {
		t.Fatalf("%d stream errors, first: %v", len(res.Errors), res.Errors[0])
	}

	fams := scrapeFederated(t, base)
	var picked float64
	for _, s := range familyNamed(t, fams, "gllm_router_picks_total").Samples {
		picked += s.Value
	}
	if picked < float64(len(trace)) {
		t.Fatalf("gllm_router_picks_total sums to %v, want >= %d", picked, len(trace))
	}
	for _, id := range []string{"remote0", "remote1"} {
		label := metrics.Label{Name: "replica", Value: id}
		if up := sampleValue(t, familyNamed(t, fams, "gllm_replica_up"), label); up != 1 {
			t.Fatalf("gllm_replica_up{replica=%q} = %v", id, up)
		}
		// The remote's own series federate under its replica label.
		sampleValue(t, familyNamed(t, fams, "gllm_requests_finished_total"), label)
	}

	if status, _ := call(t, http.MethodGet, base+"/cluster/timeline"); status != http.StatusOK {
		t.Fatalf("/cluster/timeline status %d", status)
	}
	if fe.timeline.Total() == 0 {
		t.Fatal("timeline recorded no samples")
	}

	// The children are still alive here, so the merge gathers both remotes'
	// /tracespans exports beside the router's own spans.
	path := filepath.Join(t.TempDir(), "req.json")
	if err := fe.WriteMergedTrace(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := obs.ReadChromeRequests(f)
	f.Close()
	if err != nil {
		t.Fatalf("merged trace does not decode: %v", err)
	}
	// Same-host wall clocks anchor each process's span origin, so replica
	// spans may escape the router root by scheduling jitter only.
	if err := decoded.Validate(50 * time.Millisecond); err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	crossProcess := 0
	for _, spans := range decoded.ByID {
		if bothSides(spans) {
			crossProcess++
		}
	}
	if crossProcess == 0 {
		t.Fatalf("no trace carries both router- and replica-side spans (%d traces)", len(decoded.ByID))
	}
	shutdown(t, fe.router)
}

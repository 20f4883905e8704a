// Remote-replica transport: a cluster.Engine implemented over HTTP against
// a live gllm-server process, so one Router can front replicas across
// machines exactly like in-process ones. The transport adapts the server's
// wire surface back into the Engine contract:
//
//   - SubmitBatchedSpec POSTs /v1/completions (stream=true) and pumps the
//     SSE response into a runtime proxy handle, so consumers drain remote
//     tokens through the same Handle.Next slab path as local ones;
//   - Pressure is served from a cache maintained by a background prober
//     polling GET /pressure; after FailureThreshold consecutive failures
//     the replica reads HealthUnreachable (unroutable) and recovers
//     automatically on the next successful probe;
//   - a connection dropped mid-stream terminates the handle with one
//     synthetic abort event carrying runtime.FinishDisconnected — remote
//     process death never leaves a consumer hung on Next;
//   - submit-time failures map onto the router's retry classification:
//     429 → runtime.ErrQueueFull (backoff, honor pressure-derived hints),
//     connect errors and 503 → runtime.ErrStopped (re-pick another replica).
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"gllm/internal/metrics"
	"gllm/internal/obs"
	"gllm/internal/runtime"
	"gllm/internal/server"
)

// HealthUnreachable is the cluster-side health state for a remote replica
// whose probe endpoint has failed FailureThreshold consecutive times. It is
// never reported by a runtime itself — unreachability is a property of the
// path to the replica, observable only from outside.
const HealthUnreachable = "unreachable"

// RemoteConfig describes one remote replica endpoint.
type RemoteConfig struct {
	// BaseURL of the remote gllm-server, e.g. "http://10.0.0.7:8000".
	BaseURL string
	// Model name sent in completion requests (default "gllm"; the server
	// does not validate it).
	Model string
	// ConnectTimeout bounds each submit attempt (headers received) and each
	// health probe (default 2s). Streams, once connected, live arbitrarily
	// long.
	ConnectTimeout time.Duration
	// ProbeInterval is the health-probe polling period (default 250ms).
	ProbeInterval time.Duration
	// FailureThreshold is how many consecutive probe, submit or
	// /matchprefix failures flip the replica to HealthUnreachable
	// (default 3). One successful probe recovers it.
	FailureThreshold int
	// HTTPClient overrides the default client (tests inject listeners).
	// It must not set a global Timeout — that would kill long streams.
	HTTPClient *http.Client
	// Logger, when non-nil, receives health-transition and stream-failure
	// logs.
	Logger *slog.Logger
	// ReqSpans, when non-nil, records router-side transport spans for
	// traced submissions: "connect" (POST → response headers) and "relay"
	// (the SSE pump's lifetime, detail = finish reason).
	ReqSpans *obs.ReqRecorder
}

func (cfg *RemoteConfig) applyDefaults() {
	if cfg.Model == "" {
		cfg.Model = "gllm"
	}
	if cfg.ConnectTimeout == 0 {
		cfg.ConnectTimeout = 2 * time.Second
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.FailureThreshold == 0 {
		cfg.FailureThreshold = 3
	}
}

// remoteStream is the transport's handle on one in-flight SSE pump: enough
// to abort it with a definite reason from Cancel, Shutdown, or Close. The
// first abort reason wins (consumer cancel racing a transport shutdown).
type remoteStream struct {
	reason atomic.Pointer[runtime.FinishReason]
	cancel context.CancelFunc
}

func (s *remoteStream) abort(reason runtime.FinishReason) {
	s.reason.CompareAndSwap(nil, &reason)
	s.cancel()
}

// Remote is a cluster.Engine speaking HTTP/SSE to a gllm-server process.
type Remote struct {
	cfg   RemoteConfig
	httpc *http.Client
	base  string

	ids       atomic.Int64
	start     time.Time
	collector metrics.Live

	pmu      sync.Mutex
	pressure runtime.Pressure // cached by the prober; zero until first success
	failures int              // consecutive probe/submit/matchprefix failures
	probeSt  ProbeState       // transition history (observability surface)

	inflight sync.WaitGroup // submissions from admission to the end of their pump
	smu      sync.Mutex     // guards draining, aborted and streams
	draining bool
	aborted  bool // abortAll ran: a stream registered after it aborts itself
	streams  map[int64]*remoteStream

	probeStop chan struct{}
	probeDone chan struct{}
	stopOnce  sync.Once
}

// NewRemote validates the endpoint, runs one synchronous probe (a live
// server is routable immediately; a dead one stays unroutable until the
// prober sees it), and starts the background health prober.
func NewRemote(cfg RemoteConfig) (*Remote, error) {
	u, err := url.Parse(cfg.BaseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("cluster: bad remote BaseURL %q", cfg.BaseURL)
	}
	// A negative period would panic the prober's ticker, and a negative
	// threshold would mark the replica down without ever counting a trip.
	if cfg.ProbeInterval < 0 || cfg.FailureThreshold < 0 {
		return nil, fmt.Errorf("cluster: remote %s: negative probe interval %v or failure threshold %d",
			cfg.BaseURL, cfg.ProbeInterval, cfg.FailureThreshold)
	}
	cfg.applyDefaults()
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = &http.Client{}
	}
	r := &Remote{
		cfg:       cfg,
		httpc:     httpc,
		base:      u.Scheme + "://" + u.Host,
		start:     time.Now(),
		streams:   make(map[int64]*remoteStream),
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	r.probe()
	go r.probeLoop()
	return r, nil
}

// BaseURL returns the endpoint this transport fronts.
func (r *Remote) BaseURL() string { return r.base }

func (r *Remote) probeLoop() {
	defer close(r.probeDone)
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.probeStop:
			return
		case <-t.C:
			r.probe()
		}
	}
}

// get issues one GET against the remote server, bounded by ConnectTimeout,
// and hands the body of a 200 response to decode. Every other outcome — no
// connection, another status, an undecodable body — is an error; what that
// means (a failed probe, a zeroed snapshot, no affinity) is the caller's.
func (r *Remote) get(ctx context.Context, path string, decode func(io.Reader) error) error {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.ConnectTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := r.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: remote %s %s: %s", r.base, path, resp.Status)
	}
	return decode(resp.Body)
}

// jsonInto decodes a response body into v.
func jsonInto(v any) func(io.Reader) error {
	return func(body io.Reader) error { return json.NewDecoder(body).Decode(v) }
}

// probe refreshes the cached Pressure from GET /pressure. One success
// resets the failure streak (auto-recovery); failures accumulate toward
// HealthUnreachable in noteFailure.
func (r *Remote) probe() {
	var p runtime.Pressure
	if err := r.get(context.Background(), "/pressure", jsonInto(&p)); err != nil {
		r.noteFailure(err)
		return
	}
	r.pmu.Lock()
	wasDown := r.failures >= r.cfg.FailureThreshold
	r.failures = 0
	r.pressure = p
	r.probeSt.ConsecutiveFailures = 0
	r.probeSt.Unreachable = false
	if wasDown {
		r.probeSt.Recoveries++
		r.probeSt.LastTransition = time.Now()
		r.probeSt.LastTransitionTo = "reachable"
	}
	r.pmu.Unlock()
	if wasDown {
		r.logEvent(slog.LevelInfo, "remote recovered", "endpoint", r.base, "health", p.Health)
	}
}

// ProbeState is the remote prober's observable state: the consecutive-
// failure streak, whether the replica currently reads unreachable, and
// the last reachability transition. Federated metrics and the admin
// surface render it so "this replica has been flapping since 14:02" is
// answerable without log archaeology.
type ProbeState struct {
	ConsecutiveFailures int       `json:"consecutive_failures"`
	Unreachable         bool      `json:"unreachable"`
	LastTransition      time.Time `json:"last_transition"`
	LastTransitionTo    string    `json:"last_transition_to,omitempty"`
	Trips               int64     `json:"trips"`      // transitions to unreachable
	Recoveries          int64     `json:"recoveries"` // transitions back
}

// ProbeState snapshots the prober's transition history.
func (r *Remote) ProbeState() ProbeState {
	r.pmu.Lock()
	defer r.pmu.Unlock()
	return r.probeSt
}

// noteFailure records one failed probe, submit or /matchprefix attempt. At
// the threshold the cached pressure flips to HealthUnreachable, taking the
// replica out of rotation until a probe succeeds again.
func (r *Remote) noteFailure(err error) {
	r.pmu.Lock()
	r.failures++
	tripped := r.failures == r.cfg.FailureThreshold
	if r.failures >= r.cfg.FailureThreshold {
		r.pressure = runtime.Pressure{Health: HealthUnreachable}
	}
	r.probeSt.ConsecutiveFailures = r.failures
	if tripped {
		r.probeSt.Unreachable = true
		r.probeSt.Trips++
		r.probeSt.LastTransition = time.Now()
		r.probeSt.LastTransitionTo = HealthUnreachable
	}
	r.pmu.Unlock()
	if tripped {
		r.logEvent(slog.LevelWarn, "remote unreachable",
			"endpoint", r.base, "failures", r.cfg.FailureThreshold, "err", err)
	}
}

// Pressure returns the prober's cached view. Before the first successful
// probe the zero value (empty Health) keeps the replica unroutable.
func (r *Remote) Pressure() runtime.Pressure {
	r.pmu.Lock()
	defer r.pmu.Unlock()
	return r.pressure
}

// SubmitBatchedSpec opens one streaming completion against the remote
// server and returns a proxy handle fed by a pump goroutine parsing the
// SSE response. A traced spec propagates its ID to the remote server in a
// traceparent header, so the replica's spans land under the same trace as
// the router's. Submit-time failures are classified for the router's retry
// loop: 429 wraps runtime.ErrQueueFull, connect failures and 503 wrap
// runtime.ErrStopped. ctx governs the stream's lifetime exactly like a
// local submission: cancelling it aborts the remote generation.
func (r *Remote) SubmitBatchedSpec(ctx context.Context, spec runtime.SubmitSpec) (*runtime.Handle, error) {
	// Admission and inflight.Add are one step under smu, so a drain that
	// has set draining waits for every submission that got in — including
	// one still connecting — and Add never races its Wait.
	r.smu.Lock()
	draining := r.draining
	if !draining {
		r.inflight.Add(1)
	}
	r.smu.Unlock()
	if draining {
		return nil, fmt.Errorf("cluster: remote %s draining: %w", r.base, runtime.ErrStopped)
	}
	h, err := r.submit(ctx, spec)
	if err != nil {
		r.inflight.Done() // no pump was started to do it
	}
	return h, err
}

// submit is SubmitBatchedSpec past admission: connect, classify the
// response, and start the pump that owns the stream from then on.
func (r *Remote) submit(ctx context.Context, spec runtime.SubmitSpec) (*runtime.Handle, error) {
	body, err := json.Marshal(server.CompletionRequest{
		Model:           r.cfg.Model,
		PromptLen:       spec.PromptLen,
		MaxTokens:       spec.MaxTokens,
		Stream:          true,
		PrefixGroup:     spec.PrefixGroup,
		SharedPrefixLen: spec.SharedPrefixLen,
	})
	if err != nil {
		return nil, err
	}
	streamCtx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(streamCtx, http.MethodPost, r.base+"/v1/completions", bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spec.Trace != 0 {
		req.Header.Set(obs.TraceHeader, spec.Trace.Traceparent())
	}

	// Per-attempt connect timeout: the response headers must arrive within
	// ConnectTimeout, but the stream itself may then live arbitrarily long
	// (a client-level Timeout would kill long generations).
	connStart := time.Now()
	connTimer := time.AfterFunc(r.cfg.ConnectTimeout, cancel)
	resp, err := r.httpc.Do(req)
	connTimer.Stop()
	r.cfg.ReqSpans.Record(spec.Trace, obs.SpanConnect, obs.SideRouter, r.base, 0, connStart, time.Now())
	if err != nil {
		cancel()
		if ctx.Err() != nil {
			return nil, ctx.Err() // caller cancelled, not a replica fault
		}
		r.noteFailure(err)
		return nil, fmt.Errorf("cluster: remote %s connect: %v: %w", r.base, err, runtime.ErrStopped)
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		drainBody(resp)
		cancel()
		return nil, fmt.Errorf("cluster: remote %s rejected: %w", r.base, runtime.ErrQueueFull)
	case http.StatusServiceUnavailable:
		drainBody(resp)
		cancel()
		return nil, fmt.Errorf("cluster: remote %s unavailable: %w", r.base, runtime.ErrStopped)
	default:
		drainBody(resp)
		cancel()
		return nil, fmt.Errorf("cluster: remote %s: unexpected status %s", r.base, resp.Status)
	}

	id := r.ids.Add(1)
	st := &remoteStream{cancel: cancel}
	// Handle.Cancel on the proxy handle delegates here: store the reason,
	// cancel the stream, and let the pump terminate the handle. The pump is
	// the only goroutine feeding the handle, so delivery stays single-writer.
	h, feeder := runtime.NewProxyHandle(id, st.abort)

	r.smu.Lock()
	r.streams[id] = st
	aborted := r.aborted
	r.smu.Unlock()
	if aborted {
		st.abort(runtime.FinishShutdown) // admitted before Close, connected after it
	}
	go r.pump(streamCtx, ctx, id, st, feeder, resp.Body, spec.PromptLen, spec.Trace)
	return h, nil
}

func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
}

// pump parses one SSE response into the proxy handle until the server's
// [DONE], a terminal chunk, an abort, or a transport failure. Every exit
// path closes the handle with a definite reason — a dropped connection
// becomes one synthetic FinishDisconnected event, never a hung Next.
func (r *Remote) pump(streamCtx, parent context.Context, id int64, st *remoteStream,
	feeder *runtime.ProxyFeeder, body io.ReadCloser, promptLen int, trace obs.TraceID) {
	defer r.inflight.Done()
	defer body.Close()

	var (
		idx        int // next output index to assign
		tokens     int // real (non-empty Text) tokens delivered
		firstTok   time.Time
		terminal   runtime.FinishReason // reason from a terminal chunk, if seen
		arrival    = time.Since(r.start)
		submitTime = time.Now()
		readErr    error
	)
	chunks := server.NewChunkReader(body)
	for terminal == "" {
		text, finish, err := chunks.Next()
		if err == io.EOF {
			// The stream ended — even with [DONE] — before a terminal chunk:
			// incomplete on the wire; the abort classification below names it.
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			readErr = err
			break
		}
		ev := runtime.TokenEvent{ReqID: id, Index: idx, Text: text}
		if finish != "" {
			terminal = runtime.FinishReason(finish)
			ev.Finished = true
			ev.Reason = terminal
		}
		idx++
		if text != "" {
			if tokens == 0 {
				firstTok = time.Now()
			}
			tokens++
		}
		feeder.Deliver(ev)
	}

	reason := terminal
	if reason == "" {
		// No terminal chunk: classify the abort. A reason stored by
		// Cancel/Shutdown wins; then the caller's context; anything else is
		// the transport dying under us.
		switch {
		case st.reason.Load() != nil:
			reason = *st.reason.Load()
		case parent.Err() != nil:
			if errors.Is(parent.Err(), context.DeadlineExceeded) {
				reason = runtime.FinishTimeout
			} else {
				reason = runtime.FinishCancelled
			}
		default:
			reason = runtime.FinishDisconnected
			r.noteFailure(readErr)
			r.logEvent(slog.LevelWarn, "remote stream dropped",
				"endpoint", r.base, "req", id, "tokens", tokens, "err", readErr)
		}
	}

	// Record before closing the handle: a consumer that sees the stream end
	// must already find this stream in Metrics() (the audit reads the
	// counters right after the last stream closes).
	end := time.Now()
	rec := metrics.Record{
		ID:           id,
		Arrival:      arrival,
		E2E:          end.Sub(submitTime),
		PromptTokens: promptLen,
		OutputTokens: tokens,
		FinishReason: string(reason),
	}
	if tokens > 0 {
		rec.TTFT = firstTok.Sub(submitTime)
		if tokens > 1 {
			rec.TPOT = end.Sub(firstTok) / time.Duration(tokens-1)
		}
	}
	r.collector.Add(rec)
	// "relay" (not "stream") so the router-side lane never holds two
	// partially-overlapping spans of the same name: the frontend handler
	// records "stream" around its own delivery loop, which this pump's
	// lifetime brackets but does not equal.
	r.cfg.ReqSpans.Record(trace, obs.SpanRelay, obs.SideRouter, string(reason), 0, submitTime, end)

	if terminal != "" {
		feeder.Close(terminal)
	} else {
		feeder.Abort(id, idx, reason)
	}
	st.cancel()

	r.smu.Lock()
	delete(r.streams, id)
	r.smu.Unlock()
}

// abortAll cancels every in-flight stream with FinishShutdown (their pumps
// then terminate the handles), and every stream still to be registered.
func (r *Remote) abortAll() {
	r.smu.Lock()
	r.aborted = true
	streams := make([]*remoteStream, 0, len(r.streams))
	for _, st := range r.streams {
		streams = append(streams, st)
	}
	r.smu.Unlock()
	for _, st := range streams {
		st.abort(runtime.FinishShutdown)
	}
}

// refuse stops admission: later submissions fail with ErrStopped.
func (r *Remote) refuse() {
	r.smu.Lock()
	r.draining = true
	r.smu.Unlock()
}

func (r *Remote) stopProber() {
	r.stopOnce.Do(func() { close(r.probeStop) })
	<-r.probeDone
}

// Shutdown drains the transport: new submissions are refused (ErrStopped —
// the router re-picks), in-flight streams keep delivering until they
// complete or ctx expires (then they abort with FinishShutdown, matching
// runtime.Shutdown semantics). The remote process itself keeps running —
// draining a transport detaches it, it does not stop the server.
func (r *Remote) Shutdown(ctx context.Context) error {
	r.refuse()
	done := make(chan struct{})
	go func() { r.inflight.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		r.abortAll()
		<-done
	}
	r.stopProber()
	return nil
}

// Close detaches immediately: in-flight streams abort with FinishShutdown.
func (r *Remote) Close() error {
	r.refuse()
	r.abortAll()
	r.inflight.Wait()
	r.stopProber()
	return nil
}

// Stats fetches the remote server's full snapshot (GET /stats). An
// unreachable server yields a zeroed snapshot with HealthUnreachable so
// aggregation and admin surfaces degrade gracefully instead of erroring.
func (r *Remote) Stats() runtime.Snapshot {
	var st runtime.Snapshot
	if r.get(context.Background(), "/stats", jsonInto(&st)) != nil {
		return runtime.Snapshot{Health: HealthUnreachable}
	}
	return st
}

// MatchPrefix asks the remote server how many leading tokens of the group
// are resident in its KV cache (GET /matchprefix) — the prefix-affinity
// routing signal. Unreachable or erroring replicas report 0 (no affinity),
// and the failure counts toward FailureThreshold like a failed probe, so a
// dead replica leaves rotation instead of costing every follow-up a
// ConnectTimeout.
func (r *Remote) MatchPrefix(group int64, maxTokens int) int {
	var out struct {
		Match int `json:"match"`
	}
	path := fmt.Sprintf("/matchprefix?group=%d&max_tokens=%d", group, maxTokens)
	if err := r.get(context.Background(), path, jsonInto(&out)); err != nil {
		r.noteFailure(err)
		return 0
	}
	return out.Match
}

// Metrics returns the transport-side collector: every stream this
// transport carried, with client-observed latencies and delivered token
// counts. The cluster audit consumes it exactly like a local replica's.
func (r *Remote) Metrics() *metrics.Live { return &r.collector }

// ScrapeFamilies fetches and parses the remote server's own /metrics page
// — the authoritative server-side view (queue delays, bubble rate, stage
// busy time the transport cannot observe). The metrics federator relabels
// these families with the replica's ID.
func (r *Remote) ScrapeFamilies(ctx context.Context) ([]metrics.Family, error) {
	var fams []metrics.Family
	err := r.get(ctx, "/metrics", func(body io.Reader) (err error) {
		fams, err = metrics.ParseExposition(body)
		return err
	})
	return fams, err
}

// TraceExport fetches the remote server's recorded request spans
// (GET /tracespans) for cross-process trace merging.
func (r *Remote) TraceExport(ctx context.Context) (obs.ReqExport, error) {
	var exp obs.ReqExport
	err := r.get(ctx, "/tracespans", jsonInto(&exp))
	return exp, err
}

func (r *Remote) logEvent(level slog.Level, msg string, args ...any) {
	if r.cfg.Logger != nil {
		r.cfg.Logger.Log(context.Background(), level, msg, args...)
	}
}

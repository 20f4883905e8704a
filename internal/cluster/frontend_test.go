package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"gllm/internal/metrics"
	"gllm/internal/obs"
	"gllm/internal/runtime"
)

// stuckEngine never finishes draining: Shutdown holds until ctx expires,
// like a runtime whose generations outlive the graceful window.
type stuckEngine struct{ *fakeEngine }

func (stuckEngine) Shutdown(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}

// serveFrontend fronts the named engines with a Frontend on a loopback
// listener; fresh builds the engine of each /cluster/replace.
func serveFrontend(t *testing.T, cfg Config, drainTimeout time.Duration, fresh func() (Engine, error),
	ids []string, engines ...Engine) (*Frontend, string) {
	t.Helper()
	r := New(cfg)
	for i, eng := range engines {
		if _, err := r.Add(ids[i], eng); err != nil {
			t.Fatal(err)
		}
	}
	fe := NewFrontend(r, fresh, drainTimeout, nil, cfg.ReqSpans, "m")
	t.Cleanup(fe.Close)
	ts := httptest.NewServer(fe)
	t.Cleanup(ts.Close)
	return fe, ts.URL
}

// call issues one request and returns the status and body.
func call(t *testing.T, method, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func replicaIDs(reps []*Replica) []string {
	ids := []string{}
	for _, rep := range reps {
		ids = append(ids, rep.ID)
	}
	return ids
}

// The admin endpoints, one call after another against the same cluster:
// status codes, bodies, and the replica set each call leaves behind.
// Unknown ids are 404 and change nothing (a replace of an unknown id used
// to register its replacement and burn an id); a drain or replace that
// finds its replica but outlives the graceful window is 504, not "not
// found", with the replica retired and — for replace — the replacement
// left serving.
func TestFrontendDrainReplace(t *testing.T) {
	fake := func() Engine { return newFakeEngine(okPressure()) }
	stuck := func() Engine { return stuckEngine{newFakeEngine(okPressure())} }
	fe, base := serveFrontend(t, Config{Policy: NewRoundRobin()}, 50*time.Millisecond,
		func() (Engine, error) { return fake(), nil },
		[]string{"r0", "r1", "r2", "slow0", "slow1"}, fake(), fake(), fake(), stuck(), stuck())
	_, statsBefore := call(t, http.MethodGet, base+"/cluster/stats")

	steps := []struct {
		method, path string
		status       int
		body         string
		active       string
		retired      string
	}{
		{http.MethodGet, "/cluster/drain?id=r1", 405, "POST only\n", "r0 r1 r2 slow0 slow1", ""},
		{http.MethodGet, "/cluster/replace?id=r1", 405, "POST only\n", "r0 r1 r2 slow0 slow1", ""},
		{http.MethodPost, "/cluster/drain?id=ghost", 404, "cluster: no replica \"ghost\"\n", "r0 r1 r2 slow0 slow1", ""},
		{http.MethodPost, "/cluster/replace?id=ghost", 404, "cluster: no replica \"ghost\"\n", "r0 r1 r2 slow0 slow1", ""},
		{http.MethodPost, "/cluster/drain?id=r1", 200, "{\"drained\":\"r1\"}\n", "r0 r2 slow0 slow1", "r1"},
		{http.MethodPost, "/cluster/drain?id=r1", 404, "cluster: no replica \"r1\"\n", "r0 r2 slow0 slow1", "r1"},
		// The failed replace above spent no id: the first replacement is r3.
		{http.MethodPost, "/cluster/replace?id=r0", 200, "{\"added\":\"r3\",\"drained\":\"r0\"}\n", "r2 slow0 slow1 r3", "r1 r0"},
		{http.MethodPost, "/cluster/drain?id=slow0", 504, "context deadline exceeded\n", "r2 slow1 r3", "r1 r0 slow0"},
		{http.MethodPost, "/cluster/replace?id=slow1", 504, "context deadline exceeded\n", "r2 r3 r4", "r1 r0 slow0 slow1"},
	}
	for i, s := range steps {
		status, body := call(t, s.method, base+s.path)
		if status != s.status || body != s.body {
			t.Fatalf("step %d %s %s = %d %q, want %d %q", i, s.method, s.path, status, body, s.status, s.body)
		}
		active := strings.Join(replicaIDs(fe.router.Replicas()), " ")
		retired := strings.Join(replicaIDs(fe.router.Retired()), " ")
		if active != s.active || retired != s.retired {
			t.Fatalf("step %d %s %s left active [%s] retired [%s], want [%s] [%s]",
				i, s.method, s.path, active, retired, s.active, s.retired)
		}
		if i == 3 {
			if _, stats := call(t, http.MethodGet, base+"/cluster/stats"); stats != statsBefore {
				t.Fatalf("/cluster/stats changed across rejected calls:\n%s\n%s", statsBefore, stats)
			}
		}
	}
	// The replacement of the timed-out replace is serving, not closed.
	if rep := fe.router.Replica("r4"); rep == nil || !rep.routable() {
		t.Fatal("replacement r4 must stay routable after its predecessor's drain timed out")
	}
}

// /cluster/stats keeps its shape, /cluster/timeline has a sample per
// replica before the first tick, and /metrics is the federated page (it
// shadows the single-node exposition the embedded server would serve).
func TestFrontendStatsTimelineMetrics(t *testing.T) {
	fake := func() Engine { return newFakeEngine(okPressure()) }
	_, base := serveFrontend(t, Config{Policy: NewRoundRobin()}, time.Second, nil,
		[]string{"r0", "r1"}, fake(), fake())
	if status, _ := call(t, http.MethodPost, base+"/cluster/drain?id=r1"); status != 200 {
		t.Fatalf("drain status %d", status)
	}

	var stats struct {
		Policy     *string         `json:"policy"`
		Replicas   []replicaStatus `json:"replicas"`
		Retired    []replicaStatus `json:"retired"`
		Retries429 *int64          `json:"retries_429"`
		GaveUp     *int64          `json:"gave_up"`
		Router     *RouterStats    `json:"router"`
	}
	_, body := call(t, http.MethodGet, base+"/cluster/stats")
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&stats); err != nil {
		t.Fatalf("/cluster/stats: %v\n%s", err, body)
	}
	if stats.Policy == nil || *stats.Policy != "round-robin" || stats.Retries429 == nil ||
		stats.GaveUp == nil || stats.Router == nil || stats.Router.Drains != 1 {
		t.Fatalf("/cluster/stats misses a field: %s", body)
	}
	want := replicaStatus{ID: "r0", Health: runtime.HealthOK, KVFree: 1}
	if len(stats.Replicas) != 1 || stats.Replicas[0] != want {
		t.Fatalf("replicas = %+v, want [%+v]", stats.Replicas, want)
	}
	if len(stats.Retired) != 1 || stats.Retired[0].ID != "r1" || !stats.Retired[0].Draining {
		t.Fatalf("retired = %+v, want draining r1", stats.Retired)
	}

	var tl struct {
		Total   uint64           `json:"total"`
		Samples []TimelineSample `json:"samples"`
	}
	_, body = call(t, http.MethodGet, base+"/cluster/timeline")
	if err := json.Unmarshal([]byte(body), &tl); err != nil {
		t.Fatal(err)
	}
	sampled := map[string]bool{}
	for _, s := range tl.Samples {
		sampled[s.Replica] = true
	}
	if tl.Total < 2 || !reflect.DeepEqual(sampled, map[string]bool{"r0": true, "r1": true}) {
		t.Fatalf("timeline before the first tick: total %d over %v, want both replicas", tl.Total, sampled)
	}

	up := familyNamed(t, scrapeFederated(t, base), "gllm_replica_up")
	for _, id := range []string{"r0", "r1"} {
		if v := sampleValue(t, up, metrics.Label{Name: "replica", Value: id}); v != 1 {
			t.Fatalf("gllm_replica_up{replica=%q} = %v", id, v)
		}
	}
}

// scrapeFederated fetches the frontend's /metrics page, which must parse as
// Prometheus text 0.0.4.
func scrapeFederated(t *testing.T, base string) []metrics.Family {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := metrics.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("federated /metrics does not parse: %v", err)
	}
	return fams
}

// familyNamed returns the parsed family with the given name, or fails.
func familyNamed(t *testing.T, fams []metrics.Family, name string) metrics.Family {
	t.Helper()
	for _, f := range fams {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no %s family on the page", name)
	return metrics.Family{}
}

// A completion through the router adapter carries the caller's traceparent
// to the replica: both sides record under the caller's ID, and
// /cluster/trace serves them as one decodable, valid merged trace.
func TestFrontendCompletionCarriesTrace(t *testing.T) {
	rr := obs.NewReqRecorder(0)
	rt := startReplica(t, func(cfg *runtime.Config) { cfg.ReqSpans = rr })
	_, base := serveFrontend(t, Config{Policy: NewRoundRobin(), ReqSpans: rr}, time.Second, nil,
		[]string{"r0"}, rt)

	want := obs.TraceID(0x5eed5eed5eed5eed)
	req, err := http.NewRequest(http.MethodPost, base+"/v1/completions",
		strings.NewReader(`{"prompt_len":32,"max_tokens":4,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, want.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("completion: status %d, err %v", resp.StatusCode, err)
	}
	if n := strings.Count(string(body), `"text":"`); n != 4 || !strings.HasSuffix(string(body), "data: [DONE]\n\n") {
		t.Fatalf("stream carried %d tokens:\n%s", n, body)
	}

	resp, err = http.Get(base + "/cluster/trace")
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := obs.ReadChromeRequests(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/cluster/trace does not decode: %v", err)
	}
	if err := decoded.Validate(0); err != nil {
		t.Fatal(err)
	}
	if len(decoded.ByID) != 1 || !bothSides(decoded.ByID[want]) {
		t.Fatalf("trace %s = %v (of %d traces), want router- and replica-side spans in one lane",
			want, decoded.ByID[want], len(decoded.ByID))
	}
}

// bothSides reports whether one trace's spans come from both the router
// and a replica.
func bothSides(spans []obs.ReqSpan) bool {
	sides := map[string]bool{}
	for _, s := range spans {
		sides[s.Side] = true
	}
	return sides[obs.SideRouter] && sides[obs.SideReplica]
}

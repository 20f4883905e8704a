// Cluster HTTP frontend: the single-node serving surface (internal/server:
// /v1/completions with SSE, /healthz, /stats, …) over a Router, plus what
// only exists for a replica set — the /cluster/* admin endpoints and the
// federated /metrics page. It lives beside the router rather than in
// cmd/gllm-cluster so the handlers are tested, and raced, together with
// the router they drive; the binary only parses flags and wires one up.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"gllm/internal/metrics"
	"gllm/internal/obs"
	"gllm/internal/runtime"
	"gllm/internal/server"
)

// Frontend is the http.Handler a cluster serves: a Router plus the pieces
// its admin endpoints need.
type Frontend struct {
	router       *Router
	fresh        func() (Engine, error) // builds the replacement for /cluster/replace
	nextID       atomic.Int64
	drainTimeout time.Duration
	logger       *slog.Logger
	reqSpans     *obs.ReqRecorder // router-side + in-process replica spans
	timeline     *Timeline        // /cluster/timeline pressure sampler
	mux          *http.ServeMux
}

// NewFrontend builds the serving handler over a router whose initial
// replicas are already registered (the timeline samples them at once, so
// /cluster/timeline has data from the first request on). fresh builds one
// replacement engine per /cluster/replace; drainTimeout bounds the graceful
// window of /cluster/drain and /cluster/replace; reqSpans is the recorder
// the router and its in-process replicas share. Close the frontend to stop
// the sampler and every replica.
func NewFrontend(router *Router, fresh func() (Engine, error), drainTimeout time.Duration,
	logger *slog.Logger, reqSpans *obs.ReqRecorder, modelName string) *Frontend {
	f := &Frontend{
		router:       router,
		fresh:        fresh,
		drainTimeout: drainTimeout,
		logger:       logger,
		reqSpans:     reqSpans,
		timeline:     NewTimeline(router, time.Second, 0),
		mux:          http.NewServeMux(),
	}
	fe := server.NewBackend(routerBackend{router}, modelName)
	fe.EnableRequestTracing(reqSpans, obs.SideRouter)
	f.mux.HandleFunc("/cluster/stats", f.handleStats)
	f.mux.HandleFunc("/cluster/drain", f.handleDrain)
	f.mux.HandleFunc("/cluster/replace", f.handleReplace)
	f.mux.HandleFunc("/cluster/timeline", f.handleTimeline)
	f.mux.HandleFunc("/cluster/trace", f.handleTrace)
	// Registered on the exact path, so it shadows the single-node /metrics.
	f.mux.HandleFunc("/metrics", f.handleMetrics)
	f.mux.Handle("/", fe)
	return f
}

// ServeHTTP implements http.Handler.
func (f *Frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

// Close tears down the sampler and every replica.
func (f *Frontend) Close() {
	f.timeline.Stop()
	f.router.Close()
}

// routerBackend adapts the router to the HTTP frontend's Backend, so the
// cluster reuses the entire single-node serving surface (SSE streaming,
// /healthz, /stats, /metrics) unchanged.
type routerBackend struct{ r *Router }

func (b routerBackend) Submit(ctx context.Context, req server.SubmitRequest) (*runtime.Handle, error) {
	h, _, err := b.r.Submit(ctx, req)
	return h, err
}
func (b routerBackend) Stats() runtime.Snapshot { return b.r.Stats() }
func (b routerBackend) Scrape() metrics.Scrape  { return b.r.Scrape() }

// replicaStatus is one row of /cluster/stats.
type replicaStatus struct {
	ID       string  `json:"id"`
	Health   string  `json:"health"`
	Draining bool    `json:"draining"`
	Routed   int64   `json:"routed"`
	Rejects  int64   `json:"rejects"`
	KVFree   float64 `json:"kv_free"`
	Resident int     `json:"resident"`
}

func replicaRows(reps []*Replica) []replicaStatus {
	rows := make([]replicaStatus, 0, len(reps))
	for _, rep := range reps {
		p := rep.Pressure()
		rows = append(rows, replicaStatus{
			ID: rep.ID, Health: p.Health, Draining: rep.Draining(),
			Routed: rep.Routed(), Rejects: rep.Rejects(),
			KVFree: p.KVFree, Resident: p.Resident,
		})
	}
	return rows
}

func (f *Frontend) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"policy":      f.router.Policy().Name(),
		"replicas":    replicaRows(f.router.Replicas()),
		"retired":     replicaRows(f.router.Retired()),
		"retries_429": f.router.Retries429(),
		"gave_up":     f.router.GaveUp(),
		"router":      f.router.RouterStats(),
	})
}

// handleMetrics serves the federated exposition: every replica's series
// labeled {replica="id"} plus the gllm_router_* series.
func (f *Frontend) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	metrics.WriteFamilies(w, f.router.Federate(r.Context()))
}

// handleTimeline serves the pressure/health ring, oldest sample first.
func (f *Frontend) handleTimeline(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"total":   f.timeline.Total(),
		"samples": f.timeline.Samples(),
	})
}

// traceExports gathers the router's spans plus every remote replica's
// /tracespans export, the inputs of one merged Chrome trace.
func (f *Frontend) traceExports(ctx context.Context) []obs.ReqExport {
	return append([]obs.ReqExport{f.reqSpans.Export()}, f.router.TraceExports(ctx)...)
}

// handleTrace serves the merged Chrome trace (router + every replica's
// spans, clock-aligned) for ad-hoc inspection without -trace-out.
func (f *Frontend) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteChrome(w, nil, 0, f.traceExports(r.Context())...); err != nil && f.logger != nil {
		f.logger.Warn("trace export", "err", err)
	}
}

// WriteMergedTrace writes the same merged Chrome trace to a file (the
// binary's -trace-out).
func (f *Frontend) WriteMergedTrace(path string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return obs.WriteChromeFile(path, nil, 0, f.traceExports(ctx)...)
}

// adminError answers a failed drain or replace: 404 when the id names no
// active replica, 504 otherwise — the replica was found and retired, but
// its drain outlived the graceful window and the remainder was aborted.
func adminError(w http.ResponseWriter, err error) {
	status := http.StatusGatewayTimeout
	if errors.Is(err, ErrUnknownReplica) {
		status = http.StatusNotFound
	}
	http.Error(w, err.Error(), status)
}

func (f *Frontend) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	id := r.URL.Query().Get("id")
	ctx, cancel := context.WithTimeout(r.Context(), f.drainTimeout)
	defer cancel()
	if err := f.router.Drain(ctx, id); err != nil {
		adminError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"drained": id})
}

// newID returns the next unused r<N> id. The counter only moves forward and
// skips every id the router has seen, so a cluster built as r0…r2 names its
// replacements r3, r4, … and a retired id is never handed out again.
func (f *Frontend) newID() string {
	seen := map[string]bool{}
	for _, rep := range append(f.router.Replicas(), f.router.Retired()...) {
		seen[rep.ID] = true
	}
	for {
		if id := fmt.Sprintf("r%d", f.nextID.Add(1)-1); !seen[id] {
			return id
		}
	}
}

func (f *Frontend) handleReplace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	oldID := r.URL.Query().Get("id")
	// Refuse an unknown id before a replacement engine is started or an id
	// spent on it; Router.Replace re-checks under a concurrent drain.
	if f.router.Replica(oldID) == nil {
		adminError(w, unknownReplica(oldID))
		return
	}
	eng, err := f.fresh()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	newID := f.newID()
	ctx, cancel := context.WithTimeout(r.Context(), f.drainTimeout)
	defer cancel()
	if rep, err := f.router.Replace(ctx, oldID, newID, eng); err != nil {
		if rep == nil {
			eng.Close() // never registered
		}
		adminError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"drained": oldID, "added": newID})
}

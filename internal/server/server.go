// Package server exposes a gLLM serving backend over an OpenAI-compatible
// REST API (the paper's frontend, §3.4): POST /v1/completions with optional
// SSE streaming, GET /v1/models, plus health and metrics endpoints for the
// benchmark harness. The backend is pluggable: a single runtime (New) or
// anything implementing Backend — the cluster router fronts N replicas
// through the exact same handler, SSE encoder, and metrics exposition.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"gllm/internal/metrics"
	"gllm/internal/obs"
	"gllm/internal/runtime"
	"gllm/internal/sse"
)

// SubmitRequest carries one generation request into a Backend — the
// runtime's own submission spec, so backends pass it on unchanged. Trace is
// the distributed trace context parsed from the traceparent header (zero =
// untraced); the cluster router forwards it to the chosen replica so both
// sides record spans under one ID.
type SubmitRequest = runtime.SubmitSpec

// Backend is what the HTTP frontend serves: a single runtime or a cluster
// router. Submit returns the request's handle, which the frontend drains
// with Handle.Next; errors are mapped to HTTP statuses
// (runtime.ErrQueueFull → 429 with a derived Retry-After,
// runtime.ErrStopped → 503). Scrape snapshots the incremental
// counter/histogram state feeding /metrics — O(buckets) per call, never
// O(finished requests).
type Backend interface {
	Submit(ctx context.Context, req SubmitRequest) (*runtime.Handle, error)
	Stats() runtime.Snapshot
	Scrape() metrics.Scrape
}

// PressureBackend is the optional Backend extension behind GET /pressure:
// the allocation-free load view a cluster router polls per routing
// decision (and the remote transport's health probe target). Backends
// without it get a view derived from Stats.
type PressureBackend interface {
	Pressure() runtime.Pressure
}

// PrefixMatchBackend is the optional Backend extension behind
// GET /matchprefix: how many leading tokens of a prefix group are resident
// in the backend's KV cache. Backends without it report 0 (no affinity).
type PrefixMatchBackend interface {
	MatchPrefix(group int64, maxTokens int) int
}

// runtimeBackend adapts a single *runtime.Runtime to the Backend surface.
type runtimeBackend struct{ rt *runtime.Runtime }

func (b runtimeBackend) Submit(ctx context.Context, req SubmitRequest) (*runtime.Handle, error) {
	return b.rt.SubmitBatchedSpec(ctx, req)
}
func (b runtimeBackend) Stats() runtime.Snapshot              { return b.rt.Stats() }
func (b runtimeBackend) Scrape() metrics.Scrape               { return b.rt.Metrics().Scrape() }
func (b runtimeBackend) Pressure() runtime.Pressure           { return b.rt.Pressure() }
func (b runtimeBackend) MatchPrefix(group int64, max int) int { return b.rt.MatchPrefix(group, max) }

// Server adapts a serving backend to HTTP.
type Server struct {
	be        Backend
	modelName string
	modelJSON []byte // modelName pre-encoded as a JSON string
	mux       *http.ServeMux
	started   time.Time

	// Request tracing (optional). When reqSpans is set, every request
	// carries a TraceID — taken from a valid traceparent header, minted
	// fresh otherwise — and the handler records admit/stream/request
	// lifecycle spans under traceSide (router for a cluster frontend,
	// replica for a single server).
	reqSpans  *obs.ReqRecorder
	traceSide string
}

// New builds the HTTP handler for a runtime serving the named model.
func New(rt *runtime.Runtime, modelName string) *Server {
	if rt == nil {
		panic("server: nil runtime")
	}
	return NewBackend(runtimeBackend{rt}, modelName)
}

// NewBackend builds the HTTP handler for an arbitrary serving backend
// (e.g. a cluster router fronting several runtimes).
func NewBackend(be Backend, modelName string) *Server {
	if be == nil {
		panic("server: nil backend")
	}
	s := &Server{be: be, modelName: modelName, mux: http.NewServeMux(), started: time.Now()}
	s.modelJSON = appendJSONString(nil, modelName)
	s.mux.HandleFunc("/v1/completions", s.handleCompletions)
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/pressure", s.handlePressure)
	s.mux.HandleFunc("/matchprefix", s.handleMatchPrefix)
	s.mux.HandleFunc("/tracespans", s.handleTraceSpans)
	return s
}

// EnableRequestTracing attaches a request-span recorder. side is
// obs.SideRouter for a cluster frontend, obs.SideReplica for a single
// server; the recorded spans are exported at GET /tracespans for
// cross-process trace merging.
func (s *Server) EnableRequestTracing(rr *obs.ReqRecorder, side string) {
	s.reqSpans = rr
	s.traceSide = side
}

// recordSpan records one request-lifecycle span when tracing is enabled.
func (s *Server) recordSpan(trace obs.TraceID, name, detail string, start, end time.Time) {
	s.reqSpans.Record(trace, name, s.traceSide, detail, 0, start, end)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// CompletionRequest is the accepted subset of the OpenAI completions API:
// the one declaration of the /v1/completions request body, which the
// remote-replica transport and the benchmark client encode.
type CompletionRequest struct {
	Model     string `json:"model"`
	Prompt    string `json:"prompt"`
	PromptLen int    `json:"prompt_len,omitempty"` // benchmark extension: synthetic prompt length
	MaxTokens int    `json:"max_tokens"`
	Stream    bool   `json:"stream"`
	// Benchmark extensions for conversation traffic: the first
	// shared_prefix_len prompt tokens are shared context of prefix_group,
	// reusable via the KV prefix cache and steerable by prefix-affinity
	// cluster routing.
	PrefixGroup     int64 `json:"prefix_group,omitempty"`
	SharedPrefixLen int   `json:"shared_prefix_len,omitempty"`
}

// maxBodyBytes caps a /v1/completions request body, so one client cannot
// make a replica — or the cluster frontend in front of all of them —
// buffer an arbitrarily large prompt. gllm-bench -prompt-mode real renders
// a prompt as "tok " per token, 4 bytes: the longest generated prompt
// (Azure, InMax 8192 tokens) is 32 KiB, and 1 MiB holds a replayed trace
// row of 256 Ki tokens, twice the longest context window (128 Ki) of the
// models served, plus the few hundred bytes of JSON around it.
const maxBodyBytes = 1 << 20

// CompletionChunk is the subset of a streamed completion chunk (as
// appendChunk encodes it) that stream consumers inspect: the token text —
// empty on the synthetic abort terminator — and the finish reason.
type CompletionChunk struct {
	Choices []struct {
		Text         string `json:"text"`
		FinishReason string `json:"finish_reason"`
	} `json:"choices"`
}

// ChunkReader decodes a streamed /v1/completions response body — the
// consumer side of appendChunk, shared by the remote-replica transport and
// the benchmark client.
type ChunkReader struct{ rd *sse.Reader }

// NewChunkReader reads completion chunks from an SSE response body.
func NewChunkReader(body io.Reader) *ChunkReader { return &ChunkReader{rd: sse.NewReader(body)} }

// Next returns the first choice of the next chunk: its token text (empty on
// the abort terminator) and its finish reason (empty until the last chunk).
// Chunks without choices are skipped. The [DONE] sentinel and the end of
// the body both read as io.EOF; a payload that is not a chunk is an error.
func (cr *ChunkReader) Next() (text, finish string, err error) {
	for {
		payload, err := cr.rd.Next()
		if err != nil {
			return "", "", err
		}
		if payload == "[DONE]" {
			return "", "", io.EOF
		}
		var chunk CompletionChunk
		if err := json.Unmarshal([]byte(payload), &chunk); err != nil {
			return "", "", fmt.Errorf("bad SSE chunk: %w", err)
		}
		if len(chunk.Choices) > 0 {
			return chunk.Choices[0].Text, chunk.Choices[0].FinishReason, nil
		}
	}
}

type completionChoice struct {
	Text         string `json:"text"`
	Index        int    `json:"index"`
	FinishReason string `json:"finish_reason,omitempty"`
}

type completionUsage struct {
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
	TotalTokens      int `json:"total_tokens"`
}

type completionResponse struct {
	ID      string             `json:"id"`
	Object  string             `json:"object"`
	Created int64              `json:"created"`
	Model   string             `json:"model"`
	Choices []completionChoice `json:"choices"`
	Usage   *completionUsage   `json:"usage,omitempty"`
}

type apiError struct {
	Error struct {
		Message string `json:"message"`
		Type    string `json:"type"`
	} `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	var e apiError
	e.Error.Message = msg
	switch status {
	case http.StatusTooManyRequests:
		e.Error.Type = "rate_limit_error"
	case http.StatusServiceUnavailable:
		e.Error.Type = "service_unavailable_error"
	default:
		e.Error.Type = "invalid_request_error"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(e)
}

func (s *Server) handleCompletions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req CompletionRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid JSON: %v", err))
		return
	}
	if req.MaxTokens <= 0 {
		req.MaxTokens = 16 // OpenAI default
	}
	promptLen := req.PromptLen
	if promptLen <= 0 {
		promptLen = runtime.TokenizeLen(req.Prompt)
	}
	if req.SharedPrefixLen < 0 || req.SharedPrefixLen > promptLen {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("shared_prefix_len %d out of prompt %d", req.SharedPrefixLen, promptLen))
		return
	}
	// Trace context: a valid traceparent header adopts the caller's ID
	// (the cluster router propagating its trace to this replica); a
	// missing or malformed header never rejects — when tracing is on we
	// mint a fresh ID instead.
	trace, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceHeader))
	if trace == 0 && s.reqSpans != nil {
		trace = obs.NewTraceID()
	}
	reqStart := s.reqSpans.Now(trace)
	// The request context binds the generation's lifetime to the client
	// connection: a disconnect cancels the runtime request and frees its KV.
	// Batched (slab) delivery keeps the serving hot path allocation-free;
	// tokens are drained with Handle.Next below.
	submitStart := s.reqSpans.Now(trace)
	h, err := s.be.Submit(r.Context(), SubmitRequest{
		PromptLen:       promptLen,
		MaxTokens:       req.MaxTokens,
		PrefixGroup:     req.PrefixGroup,
		SharedPrefixLen: req.SharedPrefixLen,
		Trace:           trace,
	})
	if err != nil {
		detail := "invalid"
		switch {
		case errors.Is(err, runtime.ErrQueueFull):
			// Backpressure: ask the client to shed load and come back once
			// the backlog has had a chance to drain. The hint scales with
			// KV pressure and residency instead of a hardcoded 1 s.
			detail = "queue_full"
			hint := s.be.Stats().RetryAfterHint()
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(hint)))
			writeError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, runtime.ErrStopped):
			detail = "stopped"
			writeError(w, http.StatusServiceUnavailable, "server shutting down")
		default:
			writeError(w, http.StatusBadRequest, err.Error())
		}
		now := s.reqSpans.Now(trace)
		s.recordSpan(trace, obs.SpanAdmit, detail, submitStart, now)
		s.recordSpan(trace, obs.SpanRequest, detail, reqStart, now)
		return
	}
	streamStart := s.reqSpans.Now(trace)
	s.recordSpan(trace, obs.SpanAdmit, "", submitStart, streamStart)
	id := fmt.Sprintf("cmpl-%d", h.ID)
	var finish string
	if req.Stream {
		finish = s.streamCompletion(w, r, id, h)
	} else {
		finish = s.bufferedCompletion(w, r, id, promptLen, h)
	}
	end := s.reqSpans.Now(trace)
	s.recordSpan(trace, obs.SpanStream, finish, streamStart, end)
	s.recordSpan(trace, obs.SpanRequest, finish, reqStart, end)
}

// bufferedCompletion drains the handle into one JSON response (the
// non-streaming API shape) and reports the finish reason for span
// recording ("disconnected" if the client went away mid-generation).
func (s *Server) bufferedCompletion(w http.ResponseWriter, r *http.Request, id string, promptLen int, h *runtime.Handle) string {
	var text strings.Builder
	count := 0
	finish := string(runtime.FinishLength)
	ctx := r.Context()
	for {
		evs := h.Next(ctx)
		if evs == nil {
			if ctx.Err() != nil {
				// Client went away mid-generation: abort inline through the
				// handle's cancel path and give up on the response. Slab
				// delivery needs no consumer to terminate, so nothing is
				// drained and no goroutine is spawned.
				h.Cancel()
				return finishDisconnected
			}
			break
		}
		for i := range evs {
			text.WriteString(evs[i].Text)
			if evs[i].Text != "" {
				count++
			}
			if evs[i].Finished && evs[i].Reason != "" {
				finish = string(evs[i].Reason)
			}
		}
	}
	resp := completionResponse{
		ID:      id,
		Object:  "text_completion",
		Created: time.Now().Unix(),
		Model:   s.modelName,
		Choices: []completionChoice{{Text: strings.TrimSpace(text.String()), FinishReason: finish}},
		Usage: &completionUsage{
			PromptTokens:     promptLen,
			CompletionTokens: count,
			TotalTokens:      promptLen + count,
		},
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
	return finish
}

// finishDisconnected is the span finish detail for a client that went
// away mid-stream — spans must terminate on every exit path.
const finishDisconnected = "disconnected"

// sseBuf is a pooled, reusable SSE chunk buffer (pointer-wrapped so pool
// round-trips don't allocate a slice header).
type sseBuf struct{ b []byte }

var sseBufPool = sync.Pool{New: func() any { return &sseBuf{b: make([]byte, 0, 4096)} }}

var doneChunk = []byte("data: [DONE]\n\n")

// streamCompletion renders tokens as OpenAI-style server-sent events and
// reports the stream's finish reason for span recording ("disconnected"
// when the client goes away mid-stream). The hot loop is allocation-free:
// each slab of tokens delivered by Handle.Next is encoded into one reused
// buffer by a hand-rolled JSON writer (the chunk shape is fixed) and
// written with a single flush.
func (s *Server) streamCompletion(w http.ResponseWriter, r *http.Request, id string, h *runtime.Handle) string {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return "unsupported"
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	// One creation timestamp per stream (OpenAI semantics: chunks of a
	// completion share the response's creation time).
	created := time.Now().Unix()
	buf := sseBufPool.Get().(*sseBuf)
	defer func() {
		buf.b = buf.b[:0]
		sseBufPool.Put(buf)
	}()
	ctx := r.Context()
	finish := string(runtime.FinishLength)
	for {
		evs := h.Next(ctx)
		if evs == nil {
			if ctx.Err() != nil {
				// Client went away: abort inline through the handle's cancel
				// path. Slab delivery needs no consumer to terminate, so no
				// drain goroutine is spawned (and none can leak).
				h.Cancel()
				return finishDisconnected
			}
			_, _ = w.Write(doneChunk)
			flusher.Flush()
			return finish
		}
		b := buf.b[:0]
		for i := range evs {
			b = s.appendChunk(b, id, created, &evs[i])
			if evs[i].Finished && evs[i].Reason != "" {
				finish = string(evs[i].Reason)
			}
		}
		buf.b = b
		if _, err := w.Write(b); err != nil {
			h.Cancel()
			return finishDisconnected
		}
		flusher.Flush()
	}
}

// appendChunk encodes one token event as an SSE completion chunk,
// byte-identical to what encoding/json produced for completionResponse
// (field order, HTML escaping, omitted empty finish_reason and usage).
func (s *Server) appendChunk(b []byte, id string, created int64, ev *runtime.TokenEvent) []byte {
	b = append(b, `data: {"id":`...)
	b = appendJSONString(b, id)
	b = append(b, `,"object":"text_completion","created":`...)
	b = strconv.AppendInt(b, created, 10)
	b = append(b, `,"model":`...)
	b = append(b, s.modelJSON...)
	b = append(b, `,"choices":[{"text":`...)
	b = appendJSONString(b, ev.Text)
	b = append(b, `,"index":0`...)
	if ev.Finished {
		finish := string(runtime.FinishLength)
		if ev.Reason != "" {
			finish = string(ev.Reason)
		}
		b = append(b, `,"finish_reason":`...)
		b = appendJSONString(b, finish)
	}
	return append(b, "}]}\n\n"...)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, matching
// encoding/json's default encoding: control characters, quotes and
// backslashes escaped, <, >, & HTML-escaped, U+2028/U+2029 escaped, and
// invalid UTF-8 bytes replaced with the \ufffd escape.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\u202`...)
			dst = append(dst, hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	resp := map[string]interface{}{
		"object": "list",
		"data": []map[string]interface{}{
			{"id": s.modelName, "object": "model", "owned_by": "gllm"},
		},
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	health := s.be.Stats().Health
	w.Header().Set("Content-Type", "application/json")
	if health != runtime.HealthOK {
		// Degraded (stalled pipeline), draining, or stopped: load balancers
		// should stop routing here.
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(map[string]string{"status": health})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.be.Stats()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}

// retryAfterSeconds renders a backoff hint as a Retry-After header value:
// rounded UP to whole seconds with a 1 s floor. Truncation here used to
// turn any sub-second hint into "Retry-After: 0", which retrying clients
// (including the cluster router's backoff) treat as no hint at all.
func retryAfterSeconds(hint time.Duration) int {
	if hint <= time.Second {
		return 1
	}
	return int((hint + time.Second - 1) / time.Second)
}

// handlePressure serves the lightweight routing view a cluster router
// polls per candidate replica (and the remote transport's health probe).
// Unlike /healthz it carries the load signals; unlike /stats it is cheap
// on the backend (no per-stage slices).
func (s *Server) handlePressure(w http.ResponseWriter, _ *http.Request) {
	var p runtime.Pressure
	if pb, ok := s.be.(PressureBackend); ok {
		p = pb.Pressure()
	} else {
		st := s.be.Stats()
		p = runtime.Pressure{KVFree: st.KVFreeRate, Resident: st.Resident, Health: st.Health}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(p)
}

// handleMatchPrefix answers how many leading tokens of ?group=G (up to
// ?max_tokens=N) are resident in the backend's KV cache — the signal a
// prefix-affinity router uses to re-place a conversation whose home
// replica evicted its context.
func (s *Server) handleMatchPrefix(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	group, err := strconv.ParseInt(q.Get("group"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad group: %v", err))
		return
	}
	max, err := strconv.Atoi(q.Get("max_tokens"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad max_tokens: %v", err))
		return
	}
	match := 0
	if pb, ok := s.be.(PrefixMatchBackend); ok {
		match = pb.MatchPrefix(group, max)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]int{"match": match})
}

// handleMetrics serves Prometheus text exposition (format 0.0.4). Counters
// and histograms come from the backend's incremental scrape state — cost
// is O(metric families), independent of how many requests have finished —
// and gauges reflect the instantaneous Stats snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	g := s.be.Stats().Gauges()
	g.UptimeSeconds = time.Since(s.started).Seconds() // this frontend's uptime, not its backend's
	fams := metrics.Exposition(s.be.Scrape(), g)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	metrics.WriteFamilies(w, fams)
}

// handleTraceSpans exports the recorded request spans (with this
// process's wall-clock anchor) as JSON for cross-process trace merging.
// Tracing disabled serves an empty export rather than an error so the
// merger can scrape every replica unconditionally.
func (s *Server) handleTraceSpans(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.reqSpans.Export())
}

package obs

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"

	"gllm/internal/ring"
)

// Request-scoped distributed tracing. The cluster frontend mints one
// TraceID per request and propagates it to remote replicas over the
// existing HTTP/SSE hop via a traceparent-style header; each process
// records its lifecycle spans (admit, pick/backoff attempts, connect,
// queue, prefill, decode, stream delivery) into a ReqRecorder, and the
// per-process recordings merge into a single Chrome trace where both
// sides of one request share a lane (see reqchrome.go).
//
// The same overhead discipline as Recorder applies: a nil *ReqRecorder
// is safe to call and records nothing, so untraced deployments pay only
// a nil check per span.

// TraceID identifies one request across processes. Zero means "no
// trace"; recorders ignore zero-ID spans.
type TraceID uint64

// NewTraceID mints a fresh non-zero trace ID.
func NewTraceID() TraceID {
	for {
		if id := TraceID(rand.Uint64()); id != 0 {
			return id
		}
	}
}

// String renders the ID as 16 lowercase hex digits.
func (t TraceID) String() string {
	return fmt.Sprintf("%016x", uint64(t))
}

// ParseTraceID parses the 16-hex-digit form. Zero or malformed input
// reports ok=false.
func ParseTraceID(s string) (TraceID, bool) {
	if len(s) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return TraceID(v), true
}

// TraceHeader is the HTTP header carrying the trace context between the
// cluster router and remote replicas (W3C trace-context wire format).
const TraceHeader = "traceparent"

// Traceparent renders the W3C header value. Our 64-bit ID occupies the
// low half of the 128-bit trace-id field; the parent-id repeats it.
func (t TraceID) Traceparent() string {
	return fmt.Sprintf("00-0000000000000000%016x-%016x-01", uint64(t), uint64(t))
}

// ParseTraceparent extracts the trace ID from a traceparent header.
// It is deliberately lenient — a missing, malformed, or all-zero header
// reports ok=false and the caller mints a fresh ID; propagation must
// never reject a request. Both the full W3C form and a bare
// 16-hex-digit ID are accepted.
func ParseTraceparent(h string) (TraceID, bool) {
	if len(h) == 16 {
		return ParseTraceID(h)
	}
	// 00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return 0, false
	}
	if _, err := strconv.ParseUint(h[:2], 16, 8); err != nil {
		return 0, false
	}
	hi, err := strconv.ParseUint(h[3:19], 16, 64)
	if err != nil {
		return 0, false
	}
	lo, err := strconv.ParseUint(h[19:35], 16, 64)
	if err != nil {
		return 0, false
	}
	if _, err := strconv.ParseUint(h[36:52], 16, 64); err != nil {
		return 0, false
	}
	if _, err := strconv.ParseUint(h[53:55], 16, 8); err != nil {
		return 0, false
	}
	if hi != 0 || lo == 0 {
		// We only mint 64-bit IDs; a foreign 128-bit ID degrades to a
		// fresh local one rather than a truncated collision-prone half.
		return 0, false
	}
	return TraceID(lo), true
}

// Sides of the request path a span was recorded on.
const (
	SideRouter  = "router"  // cluster frontend / router process
	SideReplica = "replica" // replica runtime / gllm-server process
)

// Canonical request-span names. Validation and accounting key off these;
// producers may add more, but the smoke-checked lifecycle uses:
const (
	SpanRequest = "request" // root: HTTP entry → response complete
	SpanAdmit   = "admit"   // submit call, including router retries
	SpanPick    = "pick"    // one routing attempt (policy pick + engine submit)
	SpanBackoff = "backoff" // retry backoff sleep between attempts
	SpanConnect = "connect" // remote POST → response headers
	SpanRelay   = "relay"   // router-side SSE pump of a remote stream
	SpanQueue   = "queue"   // replica: arrival → first schedule
	SpanPrefill = "prefill" // replica: first schedule → first token
	SpanDecode  = "decode"  // replica: first token → finish
	SpanStream  = "stream"  // token delivery to the client
)

// ReqSpan is one recorded request-lifecycle interval. Start/End are
// offsets from the recorder's wall-clock origin (see ReqRecorder).
type ReqSpan struct {
	Trace   TraceID
	Name    string
	Side    string // SideRouter or SideReplica
	Detail  string // replica ID, retry reason, finish reason, …
	Attempt int32  // routing attempt ordinal (pick/backoff spans)
	Start   time.Duration
	End     time.Duration
}

// Dur returns the span's length.
func (s ReqSpan) Dur() time.Duration { return s.End - s.Start }

// ReqRecorder captures request spans into a preallocated ring buffer.
// It anchors a wall-clock origin at creation: spans are stored as
// monotonic offsets from that origin (so intra-process ordering is
// exact), while the origin's Unix time lets per-process recordings from
// the same host be merged onto one clock (Export / WriteChromeRequests).
// All methods are safe for concurrent use and on a nil receiver.
type ReqRecorder struct {
	origin time.Time

	mu   sync.Mutex
	ring ring.Buffer[ReqSpan]
}

// DefaultReqCapacity is the ring size used when NewReqRecorder is given
// a non-positive capacity (~8Ki spans, hundreds of traced requests).
const DefaultReqCapacity = 1 << 13

// NewReqRecorder creates a request-span recorder anchored at time.Now().
func NewReqRecorder(capacity int) *ReqRecorder {
	if capacity <= 0 {
		capacity = DefaultReqCapacity
	}
	return &ReqRecorder{
		origin: time.Now(),
		ring:   ring.New[ReqSpan](capacity),
	}
}

// Now reads the wall clock for a bound of a span Record would keep (the
// recorder is non-nil and the request traced) and returns the zero time
// otherwise, so an untraced request pays for no reading.
func (r *ReqRecorder) Now(trace TraceID) time.Time {
	if r == nil || trace == 0 {
		return time.Time{}
	}
	return time.Now()
}

// Record captures one span from absolute timestamps. Nil recorders and
// zero trace IDs are no-ops; an end before start is clamped to a
// zero-length span (wall-clock callers may race the anchor by
// nanoseconds — that is not a producer bug worth panicking over).
func (r *ReqRecorder) Record(trace TraceID, name, side, detail string, attempt int, start, end time.Time) {
	if r == nil || trace == 0 {
		return
	}
	s := start.Sub(r.origin)
	e := end.Sub(r.origin)
	if s < 0 {
		s = 0
	}
	if e < s {
		e = s
	}
	r.mu.Lock()
	r.ring.Push(ReqSpan{
		Trace:   trace,
		Name:    name,
		Side:    side,
		Detail:  detail,
		Attempt: int32(attempt),
		Start:   s,
		End:     e,
	})
	r.mu.Unlock()
}

// Total returns the number of spans ever recorded.
func (r *ReqRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Total()
}

// Dropped returns how many spans the ring overwrote.
func (r *ReqRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Dropped()
}

// Spans returns a copy of the retained spans in recording order.
func (r *ReqRecorder) Spans() []ReqSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Snapshot()
}

// ReqExport is one process's recorded request spans plus its wall-clock
// anchor — the unit shipped over /tracespans and merged by
// WriteChromeRequests. Span offsets are relative to OriginUnixNano.
type ReqExport struct {
	OriginUnixNano int64           `json:"origin_unix_nano"`
	Spans          []ReqSpanExport `json:"spans"`
}

// ReqSpanExport is the JSON wire form of one ReqSpan.
type ReqSpanExport struct {
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	Side    string `json:"side"`
	Detail  string `json:"detail,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Export snapshots the retained spans in wire form. A nil recorder
// exports an empty (but valid) ReqExport.
func (r *ReqRecorder) Export() ReqExport {
	if r == nil {
		return ReqExport{Spans: []ReqSpanExport{}}
	}
	spans := r.Spans()
	out := ReqExport{
		OriginUnixNano: r.origin.UnixNano(),
		Spans:          make([]ReqSpanExport, len(spans)),
	}
	for i, s := range spans {
		out.Spans[i] = ReqSpanExport{
			Trace:   s.Trace.String(),
			Name:    s.Name,
			Side:    s.Side,
			Detail:  s.Detail,
			Attempt: int(s.Attempt),
			StartNs: int64(s.Start),
			EndNs:   int64(s.End),
		}
	}
	return out
}

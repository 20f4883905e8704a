package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if id == 0 {
		t.Fatal("NewTraceID returned zero")
	}
	got, ok := ParseTraceID(id.String())
	if !ok || got != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v", id.String(), got, ok)
	}
	got, ok = ParseTraceparent(id.Traceparent())
	if !ok || got != id {
		t.Fatalf("ParseTraceparent(%q) = %v, %v", id.Traceparent(), got, ok)
	}
}

// traceparentCases is TestParseTraceparentLenient's table and
// FuzzParseTraceparent's seeds: a header and the ID it parses to, 0 for a
// rejected one.
var traceparentCases = []struct {
	header string
	want   TraceID
}{
	{"", 0},
	{"garbage", 0},
	{"00-0000000000000000000000000000000000000000000000000-01", 0}, // wrong shape
	{"00-00000000000000000000000000000000-0000000000000000-01", 0}, // all-zero trace
	{"zz-00000000000000000123456789abcdef-0123456789abcdef-01", 0}, // bad version
	{"00-0000000000000000012345678Gabcdef-0123456789abcdef-01", 0}, // bad hex
	{"00-ffffffffffffffff0123456789abcdef-0123456789abcdef-01", 0}, // foreign 128-bit
	{"0000000000000000", 0}, // zero bare ID
	{"012345678&abcdef", 0}, // bad bare hex
	{"0123456789abcdef", 0x0123456789abcdef},
	{"00-00000000000000000123456789abcdef-0123456789abcdef-01", 0x0123456789abcdef},
}

func TestParseTraceparentLenient(t *testing.T) {
	for _, c := range traceparentCases {
		if id, ok := ParseTraceparent(c.header); id != c.want || ok != (c.want != 0) {
			t.Errorf("ParseTraceparent(%q) = %v, %v; want %v", c.header, id, ok, c.want)
		}
	}
}

func TestReqRecorderNilAndZeroSafe(t *testing.T) {
	var r *ReqRecorder
	r.Record(1, SpanAdmit, SideRouter, "", 0, time.Now(), time.Now())
	if r.Total() != 0 || r.Dropped() != 0 || r.Spans() != nil {
		t.Fatal("nil recorder not inert")
	}
	ex := r.Export()
	if ex.OriginUnixNano != 0 || len(ex.Spans) != 0 {
		t.Fatalf("nil export = %+v", ex)
	}

	rr := NewReqRecorder(4)
	rr.Record(0, SpanAdmit, SideRouter, "", 0, time.Now(), time.Now())
	if rr.Total() != 0 {
		t.Fatal("zero trace ID recorded")
	}
}

func TestReqRecorderRingAndClamp(t *testing.T) {
	rr := NewReqRecorder(4)
	base := rr.origin
	for i := 0; i < 6; i++ {
		rr.Record(TraceID(i+1), SpanPick, SideRouter, "", i,
			base.Add(time.Duration(i)*time.Millisecond),
			base.Add(time.Duration(i+1)*time.Millisecond))
	}
	if rr.Total() != 6 || rr.Dropped() != 2 {
		t.Fatalf("total=%d dropped=%d, want 6/2", rr.Total(), rr.Dropped())
	}
	spans := rr.Spans()
	if len(spans) != 4 || spans[0].Trace != 3 || spans[3].Trace != 6 {
		t.Fatalf("retained spans = %+v", spans)
	}

	// End before start clamps rather than panics (wall-clock jitter).
	rr.Record(9, SpanAdmit, SideRouter, "", 0, base.Add(time.Second), base)
	got := rr.Spans()
	last := got[len(got)-1]
	if last.Dur() != 0 || last.Start != time.Second {
		t.Fatalf("clamped span = %+v", last)
	}
}

// buildExports fabricates a two-process recording of one request routed
// to a remote replica: router-side spans in one export, replica-side in
// another whose origin is shifted, to exercise clock alignment.
func buildExports(t *testing.T, trace TraceID) (ReqExport, ReqExport) {
	t.Helper()
	routerOrigin := time.Unix(100, 0)
	replicaOrigin := time.Unix(100, int64(5*time.Millisecond)) // later anchor

	router := NewReqRecorder(64)
	router.origin = routerOrigin
	ms := func(o time.Time, n int) time.Time { return o.Add(time.Duration(n) * time.Millisecond) }
	router.Record(trace, SpanAdmit, SideRouter, "", 0, ms(routerOrigin, 0), ms(routerOrigin, 12))
	router.Record(trace, SpanPick, SideRouter, "repA", 0, ms(routerOrigin, 1), ms(routerOrigin, 2))
	router.Record(trace, SpanBackoff, SideRouter, "queue_full", 0, ms(routerOrigin, 2), ms(routerOrigin, 5))
	router.Record(trace, SpanPick, SideRouter, "repB", 1, ms(routerOrigin, 5), ms(routerOrigin, 12))
	router.Record(trace, SpanConnect, SideRouter, "http://b", 1, ms(routerOrigin, 6), ms(routerOrigin, 10))
	router.Record(trace, SpanStream, SideRouter, "length", 0, ms(routerOrigin, 12), ms(routerOrigin, 90))
	router.Record(trace, SpanRequest, SideRouter, "length", 0, ms(routerOrigin, 0), ms(routerOrigin, 95))

	replica := NewReqRecorder(64)
	replica.origin = replicaOrigin
	// Replica times are offsets from its own (later) origin; after
	// alignment they land inside the router root.
	replica.Record(trace, SpanQueue, SideReplica, "", 0, ms(replicaOrigin, 5), ms(replicaOrigin, 8))
	replica.Record(trace, SpanPrefill, SideReplica, "", 0, ms(replicaOrigin, 8), ms(replicaOrigin, 20))
	replica.Record(trace, SpanDecode, SideReplica, "length", 0, ms(replicaOrigin, 20), ms(replicaOrigin, 80))

	return router.Export(), replica.Export()
}

func TestWriteReadChromeRequestsRoundTrip(t *testing.T) {
	trace := TraceID(0xabc123)
	rex, pex := buildExports(t, trace)

	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil, 0, rex, pex); err != nil {
		t.Fatal(err)
	}
	dec, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.ByID) != 1 || len(dec.ByID[trace]) != 10 {
		t.Fatalf("decoded %d traces, %d spans for %s", len(dec.ByID), len(dec.ByID[trace]), trace)
	}
	if err := dec.Validate(0); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	// Replica spans landed on the router's clock: origin shift 5ms means
	// the queue span starts at 10ms absolute.
	var queue *ReqSpan
	for i, s := range dec.ByID[trace] {
		if s.Name == SpanQueue {
			queue = &dec.ByID[trace][i]
		}
	}
	if queue == nil || queue.Start != 10*time.Millisecond {
		t.Fatalf("aligned queue span = %+v, want start 10ms", queue)
	}
	if !strings.Contains(dec.Summary(), trace.String()) {
		t.Fatalf("Summary lacks trace ID:\n%s", dec.Summary())
	}
}

func TestValidateCatchesSeriesOverlap(t *testing.T) {
	trace := TraceID(7)
	rr := NewReqRecorder(16)
	o := rr.origin
	rr.Record(trace, SpanRequest, SideRouter, "", 0, o, o.Add(100*time.Millisecond))
	rr.Record(trace, SpanPick, SideRouter, "a", 0, o.Add(1*time.Millisecond), o.Add(10*time.Millisecond))
	rr.Record(trace, SpanPick, SideRouter, "b", 1, o.Add(5*time.Millisecond), o.Add(20*time.Millisecond))

	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil, 0, rr.Export()); err != nil {
		t.Fatal(err)
	}
	dec, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Validate(0); err == nil || !strings.Contains(err.Error(), "overlapping") {
		t.Fatalf("Validate = %v, want overlap error", err)
	}
}

func TestValidateCatchesEscapedReplicaSpan(t *testing.T) {
	trace := TraceID(9)
	rr := NewReqRecorder(16)
	o := rr.origin
	rr.Record(trace, SpanRequest, SideRouter, "", 0, o, o.Add(50*time.Millisecond))
	rr.Record(trace, SpanDecode, SideReplica, "length", 0,
		o.Add(40*time.Millisecond), o.Add(80*time.Millisecond))

	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil, 0, rr.Export()); err != nil {
		t.Fatal(err)
	}
	dec, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Validate(time.Millisecond); err == nil || !strings.Contains(err.Error(), "escapes") {
		t.Fatalf("Validate = %v, want enclosure error", err)
	}
	// A generous skew tolerance forgives it.
	if err := dec.Validate(time.Second); err != nil {
		t.Fatalf("Validate with skew: %v", err)
	}
}

func TestValidateRequiresSingleRouterRoot(t *testing.T) {
	trace := TraceID(11)
	rr := NewReqRecorder(16)
	o := rr.origin
	rr.Record(trace, SpanPick, SideRouter, "a", 0, o, o.Add(time.Millisecond))

	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil, 0, rr.Export()); err != nil {
		t.Fatal(err)
	}
	dec, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Validate(0); err == nil || !strings.Contains(err.Error(), "request roots") {
		t.Fatalf("Validate = %v, want missing-root error", err)
	}
}

func TestReadChromeRequestsRejectsSharedLane(t *testing.T) {
	// Two traces hand-placed on one lane: decode must fail.
	doc := `[
	 {"name":"router request","ph":"X","ts":0,"dur":10,"pid":0,"tid":3000,
	  "args":{"trace":"0000000000000001","name":"request","side":"router","attempt":0}},
	 {"name":"router request","ph":"X","ts":20,"dur":10,"pid":0,"tid":3000,
	  "args":{"trace":"0000000000000002","name":"request","side":"router","attempt":0}}
	]`
	if _, err := ReadChrome(strings.NewReader(doc)); err == nil ||
		!strings.Contains(err.Error(), "shared by traces") {
		t.Fatalf("ReadChrome = %v, want shared-lane error", err)
	}
}

// A request lane holds int32 attempts and exact times, like a stage lane.
func TestReadChromeRejectsMalformedRequestSpans(t *testing.T) {
	const head = `[{"name":"router pick","ph":"X","pid":0,"tid":3000,`
	for name, payload := range map[string]string{
		"attempt past int32": head + `"ts":0,"dur":1,"args":{"trace":"0000000000000001","name":"pick","side":"router","attempt":4294967297}}]`,
		"ts past range":      head + `"ts":1e300,"dur":1,"args":{"trace":"0000000000000001","name":"pick","side":"router","attempt":0}}]`,
	} {
		if _, err := ReadChrome(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// ReqSpan is its own /tracespans wire form: the JSON below is what the
// separate wire struct it replaced wrote, byte for byte, and it decodes
// back to the same spans. A zero or malformed trace ID does not decode.
func TestReqExportWireForm(t *testing.T) {
	ex := ReqExport{OriginUnixNano: 1_786_167_139_000_000_123, Spans: []ReqSpan{
		{Trace: 0xea7c2e460bae75d5, Name: SpanPick, Side: SideRouter, Detail: "r1", Attempt: 2, Start: 3_535_757_459, End: 3_539_110_790},
		{Trace: 1, Name: SpanQueue, Side: SideReplica, Start: -5, End: 0},
	}}
	const wire = `{"origin_unix_nano":1786167139000000123,"spans":[` +
		`{"trace":"ea7c2e460bae75d5","name":"pick","side":"router","detail":"r1","attempt":2,"start_ns":3535757459,"end_ns":3539110790},` +
		`{"trace":"0000000000000001","name":"queue","side":"replica","start_ns":-5,"end_ns":0}]}`
	for _, c := range []struct {
		ex   ReqExport
		want string
	}{{ex, wire}, {(*ReqRecorder)(nil).Export(), `{"origin_unix_nano":0,"spans":[]}`}} {
		if got, err := json.Marshal(c.ex); err != nil || string(got) != c.want {
			t.Fatalf("wire form %s, %v; want %s", got, err, c.want)
		}
	}
	var back ReqExport
	if err := json.Unmarshal([]byte(wire), &back); err != nil || !slices.Equal(back.Spans, ex.Spans) {
		t.Fatalf("decoded %+v, %v; want %+v", back, err, ex)
	}
	for _, id := range []string{"0000000000000000", "ea7c2e460bae75d", "xa7c2e460bae75d5"} {
		if err := json.Unmarshal([]byte(`{"spans":[{"trace":"`+id+`"}]}`), &back); err == nil {
			t.Errorf("trace ID %q decoded", id)
		}
	}
}

func TestReqRecordAllocs(t *testing.T) {
	rr := NewReqRecorder(1 << 10)
	o := rr.origin
	n := testing.AllocsPerRun(100, func() {
		rr.Record(42, SpanPick, SideRouter, "rep", 1, o, o.Add(time.Millisecond))
	})
	if n > 0 {
		t.Fatalf("Record allocates %v per call, want 0", n)
	}
}

// The Chrome wire format carries ts/dur as float microseconds; a child
// span that ends at the exact same nanosecond as its root travels a
// different float path (its own ts+dur), so a truncating decode can
// land the two endpoints 1ns apart and fail root containment. The
// decode must round, recovering the exact original nanoseconds.
func TestReadChromeRequestsExactNanosecondRoundTrip(t *testing.T) {
	trace := TraceID(0xea7c2e460bae75d5)
	// Offsets chosen adversarially (found by brute force): the root and
	// stream spans share their end nanosecond, but ts+dur for each takes
	// a different float path, and a truncating decode lands the root's
	// end 1ns below the stream's — the live-cluster failure.
	// Another request's span at the origin puts the merged clock's zero
	// there, so this request's spans travel at these offsets.
	const rootStart, streamStart, rootEnd = 3_535_757_459, 3_537_489_932, 3_539_110_790
	ex := ReqExport{
		OriginUnixNano: 1_786_167_139_000_000_123,
		Spans: []ReqSpan{
			{Trace: 1, Name: SpanRequest, Side: SideRouter, Start: 0, End: 1},
			{Trace: trace, Name: SpanRequest, Side: SideRouter, Start: rootStart, End: rootEnd},
			{Trace: trace, Name: SpanAdmit, Side: SideRouter, Start: rootStart, End: rootStart + 22_200},
			{Trace: trace, Name: SpanStream, Side: SideRouter, Start: streamStart, End: rootEnd},
		},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil, 0, ex); err != nil {
		t.Fatal(err)
	}
	dec, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range dec.ByID[trace] {
		var want ReqSpan
		for _, w := range ex.Spans {
			if w.Name == s.Name {
				want = w
			}
		}
		if s.Start != want.Start || s.End != want.End {
			t.Fatalf("%s span decoded as [%d, %d]ns, want exact [%d, %d]ns",
				s.Name, int64(s.Start), int64(s.End), int64(want.Start), int64(want.End))
		}
	}
	if err := dec.Validate(0); err != nil {
		t.Fatalf("Validate with zero skew: %v", err)
	}
}

// A router up for a week merges with a replica up for a minute to the
// exact nanosecond: the merged clock starts at the earliest span, not at
// the older origin, so uptime alone never pushes spans out of range.
func TestWriteChromeRequestsLongUptime(t *testing.T) {
	trace := TraceID(0x5eed)
	week, minute := 7*24*time.Hour, time.Minute
	router := ReqExport{OriginUnixNano: 1_786_167_139_000_000_123, Spans: []ReqSpan{
		{Trace: trace, Name: SpanRequest, Side: SideRouter, Start: week + 123_456_789, End: week + 223_456_790},
	}}
	replica := ReqExport{OriginUnixNano: router.OriginUnixNano + int64(week-minute), Spans: []ReqSpan{
		{Trace: trace, Name: SpanDecode, Side: SideReplica, Start: minute + 150_000_001, End: minute + 200_000_003},
	}}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil, 0, router, replica); err != nil {
		t.Fatal(err)
	}
	dec, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []ReqSpan{
		{Trace: trace, Name: SpanRequest, Side: SideRouter, Start: 0, End: 100_000_001},
		{Trace: trace, Name: SpanDecode, Side: SideReplica, Start: 26_543_212, End: 76_543_214},
	}
	if !slices.Equal(dec.Requests, want) {
		t.Fatalf("decoded %+v, want %+v", dec.Requests, want)
	}
	if err := dec.Validate(0); err != nil {
		t.Fatal(err)
	}
}

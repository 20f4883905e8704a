package obs

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"time"
)

// chromeSpanBytes is the fuzz encoding of one span: a kind/stage selector,
// a 48-bit start, a 32-bit duration and the 32-bit seq and token counts.
const chromeSpanBytes = 1 + 6 + 4 + 4 + 4

// maxChromeSpans caps one input's spans: enough to interleave every lane,
// few enough that an execution (and so minimization) stays fast.
const maxChromeSpans = 64

// FuzzChromeRoundTrip decodes bytes into spans a Recorder accepts — a stage
// in range, or PrepStage for KindPrep; starts below 2^48 ns, durations below
// 2^32 ns — records them, writes them with WriteChrome and reads them back
// with ReadChrome. The decoded spans must equal the recorded ones in start
// order, to the nanosecond: the float-microsecond wire format has lost a
// nanosecond twice before.
func FuzzChromeRoundTrip(f *testing.F) {
	f.Add([]byte("\x03" + "\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x10\x00\x00\x00\x01\x00\x00\x00\x80\x00"))
	f.Add([]byte("\x02" +
		"\x02\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff" +
		"\x04\x01\x00\x00\x00\x00\x00\x09\x03\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00"))
	// Odd-nanosecond starts and durations, where truncation once lost 1ns.
	f.Add([]byte("\x01" +
		"\x00\xe5\x03\x00\x00\x00\x00\x09\x03\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00" +
		"\x00\xbf\x07\x00\x00\x00\x00\x09\x03\x00\x00\x02\x00\x00\x00\x01\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1+chromeSpanBytes {
			return
		}
		stages := 1 + int(data[0])%8
		data = data[1:]
		n := min(len(data)/chromeSpanBytes, maxChromeSpans)
		r := NewRecorder(stages, n)
		for ; n > 0; n, data = n-1, data[chromeSpanBytes:] {
			kind := Kind(data[0] % 3)
			stage := int(data[0]/3) % stages
			if kind == KindPrep {
				stage = PrepStage
			}
			var start [8]byte
			copy(start[:6], data[1:7])
			begin := time.Duration(binary.LittleEndian.Uint64(start[:]))
			dur := time.Duration(binary.LittleEndian.Uint32(data[7:11]))
			seq := int32(binary.LittleEndian.Uint32(data[11:15]))
			tokens := int32(binary.LittleEndian.Uint32(data[15:19]))
			r.Record(stage, kind, int(seq), int(tokens), begin, begin+dur)
		}
		var buf bytes.Buffer
		if err := r.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		dec, err := ReadChrome(&buf)
		if err != nil {
			t.Fatal(err)
		}
		want := r.Spans()
		slices.SortStableFunc(want, func(a, b Span) int { return cmp.Compare(a.Start, b.Start) })
		if len(dec.Spans) != len(want) {
			t.Fatalf("decoded %d spans, recorded %d", len(dec.Spans), len(want))
		}
		for i, got := range dec.Spans {
			if got != want[i] {
				t.Fatalf("span %d decoded as %+v, recorded as %+v", i, got, want[i])
			}
		}
	})
}

// FuzzParseTraceparent feeds ParseTraceparent arbitrary headers. It must
// never panic; a rejected header gives ID 0, and an accepted one a non-zero
// ID whose Traceparent and String forms both parse back to it.
func FuzzParseTraceparent(f *testing.F) {
	for _, c := range traceparentCases {
		f.Add(c.header)
	}
	f.Fuzz(func(t *testing.T, h string) {
		id, ok := ParseTraceparent(h)
		if !ok {
			if id != 0 {
				t.Fatalf("%q rejected with ID %v", h, id)
			}
			return
		}
		if id == 0 {
			t.Fatalf("%q accepted as the zero ID", h)
		}
		for _, form := range []string{id.Traceparent(), id.String()} {
			if back, ok := ParseTraceparent(form); !ok || back != id {
				t.Fatalf("%q parsed as %v, but its form %q parses as %v, %v", h, id, form, back, ok)
			}
		}
	})
}

// reqSpanBytes is the fuzz encoding of one request span: export, trace,
// name, side and detail selectors, a 16-bit attempt and the raw 64-bit
// start and end offsets.
const reqSpanBytes = 5 + 2 + 8 + 8

// FuzzChromeRequestsRoundTrip builds ReqExports from bytes, as a remote
// replica's /tracespans JSON could carry them — up to three origins
// anywhere in int64, spans with any offsets, names and sides, a few of
// them ones the reader refuses — and writes them with WriteChromeRequests.
// The writer may reject an input; what it writes must read back through
// ReadChromeRequests as exactly the spans it merged, in start order, to the
// nanosecond, on a clock that starts at the earliest span. Origins far
// apart once wrote spans the reader decoded elsewhere or not at all (the
// committed seed-origins-far-apart).
func FuzzChromeRequestsRoundTrip(f *testing.F) {
	span := func(export, trace, name, side, detail byte, attempt uint16, start, end int64) []byte {
		b := []byte{export, trace, name, side, detail, byte(attempt), byte(attempt >> 8)}
		b = binary.LittleEndian.AppendUint64(b, uint64(start))
		return binary.LittleEndian.AppendUint64(b, uint64(end))
	}
	origins := func(os ...int64) []byte {
		b := []byte{byte(len(os) - 1)}
		for _, o := range os {
			b = binary.LittleEndian.AppendUint64(b, uint64(o))
		}
		return b
	}
	f.Add(append(append(origins(1_786_167_139_000_000_123, 1_786_167_139_005_000_000),
		span(0, 0, 0, 0, 0, 0, 3_535_757_459, 3_539_110_790)...),
		span(1, 0, 1, 1, 1, 1, 1_000_000, 2_000_001)...))
	// A span at the edge of the merged clock's exact range, one past it.
	f.Add(append(append(append(origins(0),
		span(0, 2, 1, 0, 2, 7, 0, 1)...),
		span(0, 2, 1, 0, 2, 7, maxMergedNs-1_234_567, maxMergedNs)...),
		span(0, 1, 0, 1, 0, 0, maxMergedNs-1_234_567, maxMergedNs+1)...))
	names := []string{SpanRequest, SpanPick, SpanQueue, SpanDecode, "", "bad\xff"}
	sides := []string{SideRouter, SideReplica, "nowhere"}
	details := []string{"", "length", "r1"}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		exports := make([]ReqExport, 1+int(data[0])%3)
		data = data[1:]
		for i := range exports {
			if len(data) < 8 {
				return
			}
			exports[i].OriginUnixNano = int64(binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
		for n := 0; len(data) >= reqSpanBytes && n < maxChromeSpans; n, data = n+1, data[reqSpanBytes:] {
			ex := &exports[int(data[0])%len(exports)]
			ex.Spans = append(ex.Spans, ReqSpanExport{
				Trace:   TraceID(1 + uint64(data[1]%4)*0x9e3779b97f4a7c15).String(),
				Name:    names[int(data[2])%len(names)],
				Side:    sides[int(data[3])%len(sides)],
				Detail:  details[int(data[4])%len(details)],
				Attempt: int(int16(binary.LittleEndian.Uint16(data[5:]))),
				StartNs: int64(binary.LittleEndian.Uint64(data[7:])),
				EndNs:   int64(binary.LittleEndian.Uint64(data[15:])),
			})
		}
		var buf bytes.Buffer
		if err := WriteChromeRequests(&buf, exports...); err != nil {
			return // refused: nothing was promised
		}
		origin, zero := int64(math.MaxInt64), int64(math.MaxInt64)
		for _, ex := range exports {
			if len(ex.Spans) > 0 {
				origin = min(origin, ex.OriginUnixNano)
			}
		}
		var want []ReqSpan
		for _, ex := range exports {
			shift := uint64(ex.OriginUnixNano) - uint64(origin)
			for _, es := range ex.Spans {
				if shift > maxOffsetNs || es.StartNs < -maxOffsetNs || es.EndNs > maxOffsetNs {
					continue
				}
				tr, _ := ParseTraceID(es.Trace)
				start, end := int64(shift)+es.StartNs, int64(shift)+es.EndNs
				zero = min(zero, start)
				want = append(want, ReqSpan{Trace: tr, Name: es.Name, Side: es.Side, Detail: es.Detail,
					Attempt: int32(es.Attempt), Start: time.Duration(start), End: time.Duration(end)})
			}
		}
		// The merged clock starts at the earliest span; a span ending past
		// its exact range is left out.
		want = slices.DeleteFunc(want, func(s ReqSpan) bool { return int64(s.End)-zero > maxMergedNs })
		if len(want) == 0 {
			return
		}
		for i := range want {
			want[i].Start -= time.Duration(zero)
			want[i].End -= time.Duration(zero)
		}
		slices.SortStableFunc(want, func(a, b ReqSpan) int { return cmp.Compare(a.Start, b.Start) })
		dec, err := ReadChromeRequests(&buf)
		if err != nil {
			t.Fatalf("written trace does not read back: %v", err)
		}
		if !slices.Equal(dec.Spans, want) {
			t.Fatalf("decoded %+v, merged %+v", dec.Spans, want)
		}
	})
}

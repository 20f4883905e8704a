package obs

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/big"
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

// reqSpanBytes is the fuzz encoding of one request span: export, trace,
// name, side and detail selectors, a 16-bit attempt and the raw 64-bit
// start and end offsets.
const reqSpanBytes = 5 + 2 + 8 + 8

// FuzzChromeRoundTrip builds both lane families from one input and writes
// them with WriteChrome:
//   - a stage recorder (absent for a stage count of 0) and the spans it
//     accepts — a stage in range, or PrepStage for KindPrep; starts below
//     2^48 ns, durations below 2^32 ns;
//   - up to three ReqExports, as a remote replica's /tracespans JSON could
//     carry them — origins anywhere in int64, the stage clock's zero
//     anywhere too, spans with any offsets, names and sides, a few of them
//     ones the writer refuses.
//
// The writer may refuse an input; what it writes must read back through
// ReadChrome as exactly the spans recorded (in start order) and merged (in
// start order, on the stage clock or else on one that starts at the
// earliest request span), to the nanosecond: the float-microsecond wire
// format has lost a nanosecond twice before, and origins far apart once
// wrote request spans the reader decoded elsewhere or not at all (the
// committed FuzzChromeRequestsRoundTrip seed-origins-far-apart).
//
// An input is a header — stage count (mod 9), export count (mod 4) and the
// number of stage spans — then the stage clock's zero (only with both
// families), the export origins, the stage spans and the request spans.
func FuzzChromeRoundTrip(f *testing.F) {
	header := func(stages, exports, stageSpans byte, anchors ...int64) []byte {
		b := []byte{stages, exports, stageSpans}
		for _, a := range anchors {
			b = binary.LittleEndian.AppendUint64(b, uint64(a))
		}
		return b
	}
	f.Add(append(header(4, 0, 1), "\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x10\x00\x00\x00\x01\x00\x00\x00\x80\x00"...))
	f.Add(append(header(3, 0, 2),
		"\x02\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"+
			"\x04\x01\x00\x00\x00\x00\x00\x09\x03\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00"...))
	// Odd-nanosecond starts and durations, where truncation once lost 1ns.
	f.Add(append(header(2, 0, 2),
		"\x00\xe5\x03\x00\x00\x00\x00\x09\x03\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00"+
			"\x00\xbf\x07\x00\x00\x00\x00\x09\x03\x00\x00\x02\x00\x00\x00\x01\x00\x00\x00"...))
	// Both families: the replica's spans land on the stage clock, and one
	// that falls before its zero is left out.
	f.Add(slices.Concat(header(2, 1, 1, 1_786_167_139_000_000_123+5_000, 1_786_167_139_000_000_123),
		[]byte("\x00\x01\x00\x00\x00\x00\x00\x09\x03\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00"),
		reqSpanSeed(0, 0, 2, 1, 0, 0, 5_000+1, 5_000+7),
		reqSpanSeed(0, 1, 2, 1, 0, 0, 4_999, 6_000)))
	f.Fuzz(chromeRoundTrip)
}

// FuzzChromeRequestsRoundTrip is FuzzChromeRoundTrip with request exports
// only: its input is an export count (1 + byte mod 3), the export origins
// and the request spans, which it checks as the header {0, count, 0} and
// the same bytes.
func FuzzChromeRequestsRoundTrip(f *testing.F) {
	origins := func(os ...int64) []byte {
		b := []byte{byte(len(os) - 1)}
		for _, o := range os {
			b = binary.LittleEndian.AppendUint64(b, uint64(o))
		}
		return b
	}
	f.Add(slices.Concat(origins(1_786_167_139_000_000_123, 1_786_167_139_005_000_000),
		reqSpanSeed(0, 0, 0, 0, 0, 0, 3_535_757_459, 3_539_110_790),
		reqSpanSeed(1, 0, 1, 1, 1, 1, 1_000_000, 2_000_001)))
	// A span at the edge of the merged clock's exact range, one past it.
	f.Add(slices.Concat(origins(0),
		reqSpanSeed(0, 2, 1, 0, 2, 7, 0, 1),
		reqSpanSeed(0, 2, 1, 0, 2, 7, maxMergedNs-1_234_567, maxMergedNs),
		reqSpanSeed(0, 1, 0, 1, 0, 0, maxMergedNs-1_234_567, maxMergedNs+1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		chromeRoundTrip(t, append([]byte{0, 1 + data[0]%3, 0}, data[1:]...))
	})
}

// reqSpanSeed encodes one request span as chromeRoundTrip decodes it.
func reqSpanSeed(export, trace, name, side, detail byte, attempt uint16, start, end int64) []byte {
	b := []byte{export, trace, name, side, detail, byte(attempt), byte(attempt >> 8)}
	b = binary.LittleEndian.AppendUint64(b, uint64(start))
	return binary.LittleEndian.AppendUint64(b, uint64(end))
}

// The names, sides and details a request span's selectors pick from.
var (
	fuzzReqNames   = []string{SpanRequest, SpanPick, SpanQueue, SpanDecode, "", "bad\xff"}
	fuzzReqSides   = []string{SideRouter, SideReplica, "nowhere"}
	fuzzReqDetails = []string{"", "length", "r1"}
)

// chromeRoundTrip is FuzzChromeRoundTrip's check of one input.
func chromeRoundTrip(t *testing.T, data []byte) {
	if len(data) < 3 {
		return
	}
	stages, exports, nStage := int(data[0]%9), make([]ReqExport, data[1]%4), int(data[2])
	data = data[3:]
	var rec *Recorder
	var stagesAt int64
	if stages > 0 {
		rec = NewRecorder(stages, maxChromeSpans)
		if len(exports) > 0 {
			if len(data) < 8 {
				return
			}
			stagesAt = int64(binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
	}
	for i := range exports {
		if len(data) < 8 {
			return
		}
		exports[i].OriginUnixNano = int64(binary.LittleEndian.Uint64(data))
		data = data[8:]
	}
	for n := 0; rec != nil && n < min(nStage, maxChromeSpans) && len(data) >= chromeSpanBytes; n, data = n+1, data[chromeSpanBytes:] {
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
		rec.Record(stage, kind, int(seq), int(tokens), begin, begin+dur)
	}
	for n := 0; len(exports) > 0 && n < maxChromeSpans && len(data) >= reqSpanBytes; n, data = n+1, data[reqSpanBytes:] {
		ex := &exports[int(data[0])%len(exports)]
		ex.Spans = append(ex.Spans, ReqSpan{
			Trace:   TraceID(1 + uint64(data[1]%4)*0x9e3779b97f4a7c15),
			Name:    fuzzReqNames[int(data[2])%len(fuzzReqNames)],
			Side:    fuzzReqSides[int(data[3])%len(fuzzReqSides)],
			Detail:  fuzzReqDetails[int(data[4])%len(fuzzReqDetails)],
			Attempt: int32(int16(binary.LittleEndian.Uint16(data[5:]))),
			Start:   time.Duration(binary.LittleEndian.Uint64(data[7:])),
			End:     time.Duration(binary.LittleEndian.Uint64(data[15:])),
		})
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, rec, stagesAt, exports...); err != nil {
		return // refused: nothing was promised
	}

	wantStage := rec.Spans()
	slices.SortStableFunc(wantStage, func(a, b Span) int { return cmp.Compare(a.Start, b.Start) })
	wantReq := mergedModel(rec != nil, stagesAt, exports)
	if len(wantStage)+len(wantReq) == 0 {
		return
	}
	dec, err := ReadChrome(&buf)
	if err != nil {
		t.Fatalf("written trace does not read back: %v", err)
	}
	if !slices.Equal(dec.Spans, wantStage) {
		t.Fatalf("decoded stage spans %+v, recorded %+v", dec.Spans, wantStage)
	}
	if !slices.Equal(dec.Requests, wantReq) {
		t.Fatalf("decoded request spans %+v, merged %+v", dec.Requests, wantReq)
	}
}

// mergedModel is what WriteChrome promises for the request spans, computed
// in arbitrary precision: each export's origin shift from the base (the
// stage clock's zero, or else the earliest origin holding a span), spans
// beyond maxOffsetNs left out, and of the rest those inside [zero, zero +
// maxMergedNs] kept, where zero is the stage clock's or else the earliest
// span's start.
func mergedModel(onStages bool, stagesAt int64, exports []ReqExport) []ReqSpan {
	base := big.NewInt(stagesAt)
	if !onStages {
		base = nil
		for _, ex := range exports {
			if o := big.NewInt(ex.OriginUnixNano); len(ex.Spans) > 0 && (base == nil || o.Cmp(base) < 0) {
				base = o
			}
		}
		if base == nil {
			return nil
		}
	}
	var spans []ReqSpan
	zero := int64(math.MaxInt64)
	for _, ex := range exports {
		shift := new(big.Int).Sub(big.NewInt(ex.OriginUnixNano), base)
		if shift.CmpAbs(big.NewInt(maxOffsetNs)) > 0 {
			continue
		}
		for _, s := range ex.Spans {
			if s.Start < -maxOffsetNs || s.End > maxOffsetNs {
				continue
			}
			s.Start += time.Duration(shift.Int64())
			s.End += time.Duration(shift.Int64())
			zero = min(zero, int64(s.Start))
			spans = append(spans, s)
		}
	}
	if onStages {
		zero = 0
	}
	spans = slices.DeleteFunc(spans, func(s ReqSpan) bool {
		return int64(s.Start) < zero || int64(s.End)-zero > maxMergedNs
	})
	for i := range spans {
		spans[i].Start -= time.Duration(zero)
		spans[i].End -= time.Duration(zero)
	}
	slices.SortStableFunc(spans, func(a, b ReqSpan) int { return cmp.Compare(a.Start, b.Start) })
	return spans
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

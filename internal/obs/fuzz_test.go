package obs

import (
	"bytes"
	"cmp"
	"encoding/binary"
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

package obs

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(0, KindExec, 1, 10, 0, time.Second)
	if r.Stages() != 0 || r.Total() != 0 || r.Dropped() != 0 || r.Spans() != nil {
		t.Fatal("nil recorder not inert")
	}
	if acc := r.Account(); acc.Window != 0 || len(acc.Stages) != 0 {
		t.Fatalf("nil accounting = %+v", acc)
	}
}

func TestRecordAndAccount(t *testing.T) {
	r := NewRecorder(2, 16)
	// Stage 0 busy 2s of a 4s window, stage 1 busy 1s.
	r.Record(0, KindExec, 1, 100, 0, time.Second)
	r.Record(0, KindXfer, 1, 100, time.Second, 1500*time.Millisecond)
	r.Record(1, KindExec, 1, 100, 1500*time.Millisecond, 2500*time.Millisecond)
	r.Record(0, KindExec, 2, 50, 3*time.Second, 4*time.Second)
	r.Record(PrepStage, KindPrep, 2, 50, 2500*time.Millisecond, 2600*time.Millisecond)

	acc := r.AccountOver(4 * time.Second)
	if acc.Window != 4*time.Second {
		t.Fatalf("window = %v", acc.Window)
	}
	if got := acc.Stages[0].Busy; got != 2*time.Second {
		t.Fatalf("stage0 busy = %v", got)
	}
	if got := acc.Stages[0].Transfer; got != 500*time.Millisecond {
		t.Fatalf("stage0 xfer = %v", got)
	}
	if got := acc.Stages[1].Busy; got != time.Second {
		t.Fatalf("stage1 busy = %v", got)
	}
	if got := acc.PrepTime; got != 100*time.Millisecond {
		t.Fatalf("prep = %v", got)
	}
	// Bubble: 1 − (2+1)/(2×4) = 0.625.
	if math.Abs(acc.BubbleRate-0.625) > 1e-12 {
		t.Fatalf("bubble rate = %v", acc.BubbleRate)
	}
	if got := acc.Stages[1].BubbleRate; math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("stage1 bubble = %v", got)
	}
	if !strings.Contains(acc.String(), "stage1") {
		t.Fatalf("accounting string:\n%s", acc.String())
	}
}

func TestAccountUsesSpanExtent(t *testing.T) {
	r := NewRecorder(1, 4)
	r.Record(0, KindExec, 1, 10, 2*time.Second, 3*time.Second)
	acc := r.Account()
	if acc.Start != 2*time.Second || acc.End != 3*time.Second || acc.Window != time.Second {
		t.Fatalf("extent = [%v, %v]", acc.Start, acc.End)
	}
	if acc.BubbleRate != 0 {
		t.Fatalf("fully busy window has bubble %v", acc.BubbleRate)
	}
}

// Utilization splits exec spans across the windows they straddle, ignores
// transfers and prep, and stamps window k at k·p for k up to ⌈end/p⌉.
func TestUtilizationWindows(t *testing.T) {
	r := NewRecorder(2, 16)
	r.Record(0, KindExec, 1, 100, 0, time.Second)
	r.Record(0, KindXfer, 1, 100, time.Second, 1500*time.Millisecond)
	r.Record(1, KindExec, 1, 100, 1500*time.Millisecond, 2500*time.Millisecond)
	r.Record(0, KindExec, 2, 50, 3*time.Second, 4*time.Second)
	r.Record(PrepStage, KindPrep, 2, 50, 2500*time.Millisecond, 2600*time.Millisecond)
	got := Utilization(r.Spans(), r.Stages(), time.Second, 3500*time.Millisecond)
	want := []string{
		"stage0-util:[{1s 1} {2s 0} {3s 0} {4s 1}]",
		"stage1-util:[{1s 0} {2s 0.5} {3s 0.5} {4s 0}]",
	}
	if len(got) != len(want) {
		t.Fatalf("%d series, want %d", len(got), len(want))
	}
	for s, ts := range got {
		if line := fmt.Sprintf("%s:%v", ts.Name, ts.Points); line != want[s] {
			t.Errorf("series %d = %s, want %s", s, line, want[s])
		}
	}
}

func TestRingWraparoundKeepsExactTotals(t *testing.T) {
	r := NewRecorder(1, 8)
	for i := 0; i < 100; i++ {
		start := time.Duration(i) * time.Second
		r.Record(0, KindExec, i, 1, start, start+time.Second)
	}
	if r.Total() != 100 {
		t.Fatalf("total = %d", r.Total())
	}
	if r.Dropped() != 92 {
		t.Fatalf("dropped = %d", r.Dropped())
	}
	spans := r.Spans()
	if len(spans) != 8 {
		t.Fatalf("retained = %d", len(spans))
	}
	// Oldest-first: the ring keeps the last 8 spans.
	for i, s := range spans {
		if want := int32(92 + i); s.Seq != want {
			t.Fatalf("span %d seq = %d, want %d", i, s.Seq, want)
		}
	}
	// Cumulative accounting is exact despite the drops.
	if got := r.AccountOver(100 * time.Second).Stages[0].Busy; got != 100*time.Second {
		t.Fatalf("busy = %v", got)
	}
}

// TestRecordersFullAtCapacity fills both span recorders exactly to their
// ring capacity: every span is retained and none is dropped. (ReqRecorder
// once returned no spans at all in this state.)
func TestRecordersFullAtCapacity(t *testing.T) {
	const capacity = 4
	origin := time.Now()
	for _, tc := range []struct {
		name string
		// fill records capacity spans and reports what the recorder kept.
		fill func() (retained int, dropped uint64)
	}{
		{"Recorder", func() (int, uint64) {
			r := NewRecorder(1, capacity)
			for i := range capacity {
				r.Record(0, KindExec, i, 1, 0, time.Second)
			}
			return len(r.Spans()), r.Dropped()
		}},
		{"ReqRecorder", func() (int, uint64) {
			r := NewReqRecorder(capacity)
			for i := range capacity {
				r.Record(TraceID(i+1), SpanQueue, SideReplica, "", 0, origin, origin)
			}
			return len(r.Spans()), r.Dropped()
		}},
	} {
		if retained, dropped := tc.fill(); retained != capacity || dropped != 0 {
			t.Errorf("%s: %d spans retained, %d dropped; want %d and 0", tc.name, retained, dropped, capacity)
		}
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(4, 1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				start := time.Duration(i) * time.Millisecond
				r.Record(g%4, KindExec, i, 1, start, start+time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	if r.Total() != 4000 {
		t.Fatalf("total = %d", r.Total())
	}
	var busy time.Duration
	for _, st := range r.Account().Stages {
		busy += st.Busy
	}
	if busy != 4000*time.Millisecond {
		t.Fatalf("busy total = %v", busy)
	}
}

func TestRecordPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(*Recorder)
	}{
		{"stage out of range", func(r *Recorder) { r.Record(2, KindExec, 0, 0, 0, 0) }},
		{"negative stage exec", func(r *Recorder) { r.Record(-1, KindExec, 0, 0, 0, 0) }},
		{"end before start", func(r *Recorder) { r.Record(0, KindExec, 0, 0, time.Second, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn(NewRecorder(2, 4))
		})
	}
}

func TestChromeRoundTrip(t *testing.T) {
	r := NewRecorder(3, 64)
	r.Record(0, KindExec, 1, 128, 0, 10*time.Millisecond)
	r.Record(0, KindXfer, 1, 128, 10*time.Millisecond, 11*time.Millisecond)
	r.Record(1, KindExec, 1, 128, 11*time.Millisecond, 21*time.Millisecond)
	r.Record(2, KindExec, 1, 128, 22*time.Millisecond, 30*time.Millisecond)
	r.Record(PrepStage, KindPrep, 2, 64, 5*time.Millisecond, 6*time.Millisecond)

	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := ReadChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stages != 3 {
		t.Fatalf("decoded stages = %d", dec.Stages)
	}
	if len(dec.Spans) != 5 {
		t.Fatalf("decoded spans = %d", len(dec.Spans))
	}
	// The decoded accounting must match the recorder's (µs rounding only).
	want := r.Account()
	got := dec.Account(0)
	for s := range want.Stages {
		diff := (want.Stages[s].Busy - got.Stages[s].Busy).Abs()
		if diff > time.Microsecond {
			t.Fatalf("stage %d busy drifted %v", s, diff)
		}
	}
	if math.Abs(want.BubbleRate-got.BubbleRate) > 1e-3 {
		t.Fatalf("bubble rate %v vs %v", want.BubbleRate, got.BubbleRate)
	}
}

// Odd-nanosecond spans must survive the float-microsecond wire format
// exactly: the decoder rounds, it does not truncate (about one start in 170
// and one end in 17 would otherwise come back 1ns early).
func TestReadChromeExactNanosecondRoundTrip(t *testing.T) {
	const n = 2000
	r := NewRecorder(2, n) // filled exactly: next wraps to 0 with nothing dropped
	for i := 0; i < n; i++ {
		start := time.Duration(i*997 + 1)
		r.Record(i%2, KindExec, i, 1, start, start+777)
	}
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Spans() // recorded in start order, which WriteChrome keeps
	if len(dec.Spans) != len(want) {
		t.Fatalf("decoded %d spans, want %d", len(dec.Spans), len(want))
	}
	for i, got := range dec.Spans {
		if got != want[i] {
			t.Fatalf("span %d decoded as %+v, recorded as %+v", i, got, want[i])
		}
	}
}

func TestReadChromeObjectFormat(t *testing.T) {
	r := NewRecorder(1, 4)
	r.Record(0, KindExec, 1, 8, 0, time.Millisecond)
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	wrapped := fmt.Sprintf(`{"traceEvents": %s}`, strings.TrimSpace(buf.String()))
	dec, err := ReadChrome(strings.NewReader(wrapped))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Spans) != 1 {
		t.Fatalf("spans = %d", len(dec.Spans))
	}
}

func TestReadChromeRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":     `nope`,
		"no spans":     `[]`,
		"bad phase":    `[{"name":"x","ph":"B","ts":0,"pid":0,"tid":0}]`,
		"negative dur": `[{"name":"x","ph":"X","ts":0,"dur":-1,"pid":0,"tid":0,"args":{"kind":"exec","stage":0,"seq":1,"tokens":1}}]`,
		"missing kind": `[{"name":"x","ph":"X","ts":0,"dur":1,"pid":0,"tid":0,"args":{"stage":0,"seq":1,"tokens":1}}]`,
		"unknown kind": `[{"name":"x","ph":"X","ts":0,"dur":1,"pid":0,"tid":0,"args":{"kind":"gpu","stage":0,"seq":1,"tokens":1}}]`,
		"tid mismatch": `[{"name":"x","ph":"X","ts":0,"dur":1,"pid":0,"tid":7,"args":{"kind":"exec","stage":0,"seq":1,"tokens":1}}]`,
		"float seq":    `[{"name":"x","ph":"X","ts":0,"dur":1,"pid":0,"tid":0,"args":{"kind":"exec","stage":0,"seq":1.5,"tokens":1}}]`,
	}
	for name, payload := range cases {
		if _, err := ReadChrome(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// The observer path must stay allocation-free: a nil recorder (tracing
// disabled) costs nothing, and an enabled recorder writes into the
// preallocated ring without allocating per span.
func TestRecordDoesNotAllocate(t *testing.T) {
	var disabled *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		disabled.Record(0, KindExec, 1, 1, 0, time.Millisecond)
	}); n != 0 {
		t.Fatalf("disabled path allocates %v per span", n)
	}
	enabled := NewRecorder(4, 1024)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		start := time.Duration(i) * time.Microsecond
		enabled.Record(i%4, KindExec, i, 32, start, start+time.Microsecond)
		i++
	}); n != 0 {
		t.Fatalf("enabled path allocates %v per span", n)
	}
}

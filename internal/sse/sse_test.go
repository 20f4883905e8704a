package sse

import (
	"bufio"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// drain collects every payload until EOF or error.
func drain(t *testing.T, r io.Reader) ([]string, error) {
	t.Helper()
	rd := NewReader(r)
	var out []string
	for {
		p, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

func TestLFFraming(t *testing.T) {
	in := "data: one\n\ndata: two\n\ndata: [DONE]\n\n"
	got, err := drain(t, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"one", "two", "[DONE]"}
	if len(got) != len(want) {
		t.Fatalf("payloads = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("payload %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// CRLF line endings (what a proxy or a Windows-built server emits) must
// parse identically to LF, with no \r leaking into payloads.
func TestCRLFFraming(t *testing.T) {
	in := "data: {\"x\":1}\r\n\r\ndata: [DONE]\r\n\r\n"
	got, err := drain(t, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != `{"x":1}` || got[1] != "[DONE]" {
		t.Fatalf("payloads = %q", got)
	}
}

// The SSE grammar makes the space after "data:" optional.
func TestDataColonWithoutSpace(t *testing.T) {
	got, err := drain(t, strings.NewReader("data:bare\n\ndata:  two-spaces\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one optional space is consumed; further spaces are payload.
	if len(got) != 2 || got[0] != "bare" || got[1] != " two-spaces" {
		t.Fatalf("payloads = %q", got)
	}
}

// Comments, event/id fields, and blank lines are skipped, not errors.
func TestNonDataLinesSkipped(t *testing.T) {
	in := ": keepalive\nevent: message\nid: 7\nretry: 100\ndata: x\n\n: trailing comment\n"
	got, err := drain(t, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "x" {
		t.Fatalf("payloads = %q", got)
	}
}

// Payloads split across arbitrary read boundaries must reassemble: the
// one-byte reader forces a boundary between every byte.
func TestPayloadSplitAcrossReadBoundaries(t *testing.T) {
	in := "data: {\"choices\":[{\"text\":\"tok \"}]}\r\n\r\ndata: [DONE]\n\n"
	got, err := drain(t, iotest.OneByteReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != `{"choices":[{"text":"tok "}]}` || got[1] != "[DONE]" {
		t.Fatalf("payloads = %q", got)
	}
}

// Lines just under the cap pass through byte-exact; one byte over the cap
// surfaces bufio.ErrTooLong instead of silent truncation.
func TestScannerCapBoundary(t *testing.T) {
	// "data: " + payload + "\n" must fit in MaxLineBytes.
	payload := strings.Repeat("a", MaxLineBytes-len("data: ")-1)
	in := "data: " + payload + "\n\ndata: [DONE]\n\n"
	got, err := drain(t, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != payload {
		t.Fatalf("under-cap payload mangled: %d payloads, len %d", len(got), len(got[0]))
	}

	over := "data: " + strings.Repeat("a", MaxLineBytes) + "\n\n"
	_, err = drain(t, strings.NewReader(over))
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("over-cap err = %v, want bufio.ErrTooLong", err)
	}
}

// A mid-stream transport error is surfaced, not swallowed as EOF.
func TestReadErrorSurfaces(t *testing.T) {
	boom := errors.New("conn reset")
	r := io.MultiReader(strings.NewReader("data: x\n\n"), iotest.ErrReader(boom))
	got, err := drain(t, r)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if len(got) != 1 || got[0] != "x" {
		t.Fatalf("payloads before error = %q", got)
	}
}

// An unterminated final line (server died mid-write) still yields the
// bytes read so far — the consumer decides whether the payload is valid.
func TestTruncatedFinalLine(t *testing.T) {
	got, err := drain(t, strings.NewReader("data: full\n\ndata: {\"half"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != `{"half` {
		t.Fatalf("payloads = %q", got)
	}
}

// Every remote stream opens one reader, so the buffer it starts with is a
// per-stream cost: reading the first chunk must allocate a chunk-sized
// buffer, not a 64 KiB one. Long lines still grow it (TestScannerCapBoundary).
func TestReaderAllocatesChunkSizedBuffer(t *testing.T) {
	const chunk = `data: {"id":"cmpl-1","object":"text_completion","created":1,"model":"m","choices":[{"text":"tok ","index":0}]}` + "\n\n"
	const limit = 8 << 10
	var before, after runtime.MemStats
	low := ^uint64(0)
	for i := 0; i < 5; i++ {
		src := strings.NewReader(chunk)
		runtime.ReadMemStats(&before)
		if _, err := NewReader(src).Next(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		low = min(low, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("bytes allocated through the first chunk = %d", low)
	if low > limit {
		t.Fatalf("a reader allocates %d B before its first chunk (limit %d)", low, limit)
	}
}

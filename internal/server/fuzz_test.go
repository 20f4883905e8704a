package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"gllm/internal/invariant"
	"gllm/internal/network"
	"gllm/internal/runtime"
	"gllm/internal/sched"
)

// FuzzCompletionRequest feeds arbitrary bodies through the /v1/completions
// handler over one small runtime (the invariant harness's toy deployment,
// a 3 520-token KV cache, so no accepted body generates for long). No body
// may panic the handler or the driver, every status is one the API
// documents, and once a response is written the runtime is still healthy
// with nothing resident. The committed corpus holds the lengths whose sum
// wrapped past math.MaxInt and took the driver down, zero and negative
// lengths and a shared prefix longer than its prompt; the body one byte
// over the 1 MiB cap is added here rather than committed.
func FuzzCompletionRequest(f *testing.F) {
	f.Add([]byte(`{"prompt":"the quick brown fox","max_tokens":5,"stream":true}`))
	f.Add([]byte(`{"prompt":"` + strings.Repeat("a", maxBodyBytes-12) + `"}`)) // 1 MiB + 1 bytes
	rt, err := runtime.Start(runtime.Config{
		Model:     invariant.HarnessModel(),
		GPU:       invariant.HarnessGPU(),
		Topo:      network.IntraNode(4, network.PCIe),
		MemUtil:   0.5,
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { rt.Close() })
	s := New(rt, "toy")
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/completions", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for %q", w.Code, body)
		}
		if st := rt.Stats(); st.Health != runtime.HealthOK || st.Resident != 0 {
			t.Fatalf("after %q (status %d): health %s, %d resident", body, w.Code, st.Health, st.Resident)
		}
	})
}

// FuzzDecodeCompletion diffs decodeCompletion against the decoder of
// record, json.NewDecoder(http.MaxBytesReader(w, body, maxBodyBytes)).Decode:
// for every body, delivered whole, a byte at a time, in halves, with its
// last bytes and EOF in one read, and ending in a read error instead of
// EOF, it must decode an equal request or fail with the same status and
// response body. The seeds are the bodies the benchmark client and the
// remote-replica transport send, and one of each kind the canonical scanner
// must leave to encoding/json: escapes, keys it would fold (ſ and the
// Kelvin sign fold to s and k) or not know, null, a duplicate key, numbers
// that are not decimal integers of the field's size, bytes after the
// closing brace, a body longer than the head, and one byte over the cap.
func FuzzDecodeCompletion(f *testing.F) {
	for _, seed := range []string{
		`{"prompt_len":64,"max_tokens":13,"stream":true,"prefix_group":5,"shared_prefix_len":32}`,
		`{"model":"Qwen2.5-14B","prompt":"","prompt_len":64,"max_tokens":8,"stream":true,"prefix_group":3,"shared_prefix_len":16}`,
		` {"model":"m", "prompt":"héllo wörld", "max_tokens":-0, "stream":false} `,
		`{"prompt":"line\nbreak"}`, "{\"prompt\":\"bad \xff byte\"}",
		`{"ſtream":true}`, `{"max_to\u212aens":5}`, "{\"max_to\u212aens\":5}", `{"Max_Tokens":5}`, `{"n":1}`,
		`{"max_tokens":null}`, `{"max_tokens":1,"max_tokens":2}`, `{"stream":tru}`,
		`{"max_tokens":1e2}`, `{"max_tokens":1.0}`, `{"max_tokens":01}`,
		`{"max_tokens":9223372036854775808}`, `{"prefix_group":-9223372036854775808}`,
		`{"max_tokens":"4"}`, `{"stream":1}`, `{"max_tokens":3} trailing`, `{"max_tokens":3`, ``, `[]`,
		`{"prompt":"` + strings.Repeat("a", 2*headBytes) + `"}`,
		`{"prompt":"` + strings.Repeat("a", maxBodyBytes-12) + `"}`, // 1 MiB + 1 bytes
	} {
		f.Add([]byte(seed))
	}
	errRead := errors.New("connection reset")
	deliveries := map[string]func([]byte) io.Reader{
		"whole":   func(b []byte) io.Reader { return bytes.NewReader(b) },
		"bytes":   func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		"halves":  func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
		"dataEOF": func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
		"reset":   func(b []byte) io.Reader { return io.MultiReader(bytes.NewReader(b), iotest.ErrReader(errRead)) },
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for name, deliver := range deliveries {
			refW := httptest.NewRecorder()
			var want CompletionRequest
			refErr := json.NewDecoder(http.MaxBytesReader(refW, io.NopCloser(deliver(body)), maxBodyBytes)).Decode(&want)
			gotW := httptest.NewRecorder()
			var got CompletionRequest
			err := decodeCompletion(gotW, deliver(body), &got)
			switch {
			case (err == nil) != (refErr == nil):
				t.Fatalf("%s %q: error %v, encoding/json %v", name, body, err, refErr)
			case err == nil && got != want:
				t.Fatalf("%s %q: decoded %+v, encoding/json %+v", name, body, got, want)
			case err != nil:
				writeBodyError(gotW, err)
				writeBodyError(refW, refErr)
				if gotW.Code != refW.Code || gotW.Body.String() != refW.Body.String() {
					t.Fatalf("%s %q: answered %d %q, encoding/json %d %q", name, body,
						gotW.Code, gotW.Body, refW.Code, refW.Body)
				}
			}
		}
	})
}

// FuzzChunkReader: ChunkReader faces the network twice — the benchmark
// client and the remote-replica transport both feed it a server's response
// body. Any byte stream must decode without a panic, to at most one event
// per "data:" it contains, and to the same events whatever the read
// boundaries; and what appendChunk encodes must read back as the text and
// finish reason that went in (encoding/json's U+FFFD for each invalid byte).
func FuzzChunkReader(f *testing.F) {
	f.Add([]byte("data: {\"choices\":[{\"text\":\"the \"}]}\r\n\r\ndata: [DONE]\r\n\r\n"), "the ", false, "")
	f.Add([]byte("data: {\"choices\":[{\"text\":\"a\"}]}\n\ndata: [DO\nNE]\n\n"), "<a&b> ", true, "length")
	f.Add([]byte("data: {\"choices\":[]}\n\ndata:{\"choices\":[{\"text\":\"\",\"finish_reason\":\"cancelled\"}]}\n\n"),
		"", true, "cancelled")
	f.Add([]byte(": keepalive\nevent: x\ndata: 7\n"), "bad\xff utf8\n", true, "")

	s := &Server{modelJSON: appendJSONString(nil, "m")}
	f.Fuzz(func(t *testing.T, stream []byte, text string, finished bool, reason string) {
		whole := readChunks(NewChunkReader(bytes.NewReader(stream)))
		if max := bytes.Count(stream, []byte("data:")); len(whole)-1 > max {
			t.Fatalf("%d events out of %d data: lines", len(whole)-1, max)
		}
		split := readChunks(NewChunkReader(iotest.OneByteReader(bytes.NewReader(stream))))
		if !slices.Equal(whole, split) {
			t.Fatalf("read boundaries changed the decode:\nwhole %q\nsplit %q", whole, split)
		}

		ev := runtime.TokenEvent{Text: text, Finished: finished, Reason: runtime.FinishReason(reason)}
		wantFinish := ""
		if finished {
			wantFinish = string(runtime.FinishLength)
			if reason != "" {
				wantFinish = string([]rune(reason))
			}
		}
		got := readChunks(NewChunkReader(bytes.NewReader(s.appendChunk(nil, 1, 1, &ev))))
		want := []string{fmt.Sprintf("%q/%q", string([]rune(text)), wantFinish), "EOF"}
		if !slices.Equal(got, want) {
			t.Fatalf("appendChunk(%q, %v, %q) read back as %q, want %q", text, finished, reason, got, want)
		}
	})
}

// readChunks drains a ChunkReader into one printable entry per event plus
// the terminating error.
func readChunks(cr *ChunkReader) []string {
	var out []string
	for {
		text, finish, err := cr.Next()
		if err != nil {
			return append(out, err.Error())
		}
		out = append(out, fmt.Sprintf("%q/%q", text, finish))
	}
}

package server

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"testing/iotest"

	"gllm/internal/runtime"
)

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
		got := readChunks(NewChunkReader(bytes.NewReader(s.appendChunk(nil, "cmpl-1", 1, &ev))))
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

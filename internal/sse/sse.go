// Package sse extracts data payloads from a server-sent-events byte
// stream. It is shared by the benchmark client and the cluster's
// remote-replica transport, both of which consume the serving frontend's
// /v1/completions streams — so it must be robust to adversarial framing:
// CRLF line endings, payloads split across arbitrary read boundaries,
// `data:` fields with or without the optional leading space, interleaved
// comment/event/id lines, and lines up to (but not beyond) MaxLineBytes.
package sse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// MaxLineBytes bounds a single SSE line. Lines beyond it surface
// bufio.ErrTooLong from Reader.Next rather than silently corrupting the
// stream (a token chunk is a few dozen bytes; a megabyte line is an
// attack or a bug).
const MaxLineBytes = 1 << 20

// initialBuf is the scanner's starting buffer, sized to a few completion
// chunks (a few hundred bytes each) because every remote stream opens one
// reader; it grows on demand up to MaxLineBytes.
const initialBuf = 4 * 1024

var dataPrefix = []byte("data:")

// Reader yields successive `data:` payloads from an SSE stream.
type Reader struct {
	s *bufio.Scanner
}

// NewReader wraps r. The reader owns no goroutines and reads r lazily.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, initialBuf), MaxLineBytes)
	return &Reader{s: s}
}

// Next returns the next data payload. Non-data lines (comments, event/id
// fields, blank separators) are skipped. It returns io.EOF when the
// stream ends cleanly, and the underlying read or bufio error otherwise
// (bufio.ErrTooLong for a line beyond MaxLineBytes). The returned string
// is a copy and remains valid after further calls.
func (r *Reader) Next() (string, error) {
	for r.s.Scan() {
		// bufio.ScanLines strips "\n" and one preceding "\r" (on a final
		// unterminated line too), so CRLF framing needs no handling here; a
		// second CR is payload.
		line := r.s.Bytes()
		if !bytes.HasPrefix(line, dataPrefix) {
			continue
		}
		payload := line[len(dataPrefix):]
		// The SSE grammar allows exactly one optional space after the colon.
		if len(payload) > 0 && payload[0] == ' ' {
			payload = payload[1:]
		}
		return string(payload), nil
	}
	if err := r.s.Err(); err != nil {
		return "", fmt.Errorf("sse: %w", err)
	}
	return "", io.EOF
}

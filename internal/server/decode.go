package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// headBytes is how much of a /v1/completions body the canonical scanner
// reads before giving up on it. The bodies the benchmark client and the
// remote-replica transport send for synthetic prompts are under 200 bytes;
// a body whose object has not closed by then goes to encoding/json.
const headBytes = 1 << 10

// headPool recycles the head buffers, so a body the scanner accepts costs
// no allocation beyond its decoded strings.
var headPool = sync.Pool{New: func() any { return new([headBytes]byte) }}

// decodeCompletion decodes a /v1/completions body into req with exactly the
// result of json.NewDecoder(http.MaxBytesReader(w, body, maxBodyBytes)).Decode:
// the same CompletionRequest, or the same error. It reads the body's head
// and hands it to scanCompletion, which accepts only a strict subset of
// what encoding/json accepts and decodes it as encoding/json would; every
// other body goes to encoding/json, which reads the head bytes first and
// then the rest of the body, so the cap counts every byte once.
func decodeCompletion(w http.ResponseWriter, body io.Reader, req *CompletionRequest) error {
	head := headPool.Get().(*[headBytes]byte)
	defer headPool.Put(head)
	n := 0
	var err error
	for n < len(head) && err == nil {
		var m int
		m, err = body.Read(head[n:])
		n += m
		switch scanCompletion(head[:n], req) {
		case scanDone:
			// encoding/json stops reading at the closing brace too, and
			// scans the bytes a Read returned before its error.
			return nil
		case scanFallback:
			return decodeJSON(w, head[:n], body, req)
		}
	}
	return decodeJSON(w, head[:n], body, req)
}

// decodeJSON is the decoder of record: encoding/json over the head bytes
// already read and then the rest of the body, under the body cap; a body
// whose head read ended in an error returns it again to the next Read. It
// decodes into a copy, so the caller's request stays off the heap on the
// scanner's path.
func decodeJSON(w http.ResponseWriter, head []byte, body io.Reader, req *CompletionRequest) error {
	var v CompletionRequest
	err := json.NewDecoder(http.MaxBytesReader(w, io.NopCloser(io.MultiReader(bytes.NewReader(head), body)),
		maxBodyBytes)).Decode(&v)
	*req = v
	return err
}

// scanResult is scanCompletion's verdict on a body head.
type scanResult int

const (
	scanMore     scanResult = iota // the head ends inside a canonical body
	scanDone                       // one canonical object, decoded
	scanFallback                   // not canonical: encoding/json decides
)

// scanCompletion decodes a canonical /v1/completions body: JSON whitespace
// around one object whose keys are byte-equal to CompletionRequest's tags,
// each at most once; decimal integers that fit their field, with no
// fraction, exponent or leading zero; true or false; and strings with no
// escape, no control byte and valid UTF-8. For those bodies encoding/json
// decodes the same request, and ignores what follows the closing brace as
// this does. Anything else — escapes, other keys (encoding/json folds
// their case, even ſ to s and K to k), null, duplicates, type mismatches —
// is scanFallback. It rescans from the start, so req holds the decoded
// body only on scanDone.
func scanCompletion(b []byte, req *CompletionRequest) scanResult {
	*req = CompletionRequest{}
	var model, prompt []byte
	var seen uint8
	i := skipSpace(b, 0)
	if i == len(b) {
		return scanMore
	}
	if b[i] != '{' {
		return scanFallback
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return scanDone
	}
	for {
		key, j, res := scanString(b, i)
		if res != scanDone {
			return res
		}
		if i = skipSpace(b, j); i == len(b) {
			return scanMore
		}
		if b[i] != ':' {
			return scanFallback
		}
		if i = skipSpace(b, i+1); i == len(b) {
			return scanMore
		}
		var field uint8
		var n int64
		switch string(key) {
		case "model":
			field = 1 << 0
			model, i, res = scanString(b, i)
		case "prompt":
			field = 1 << 1
			prompt, i, res = scanString(b, i)
		case "prompt_len":
			field = 1 << 2
			n, i, res = scanInt(b, i, strconv.IntSize)
			req.PromptLen = int(n)
		case "max_tokens":
			field = 1 << 3
			n, i, res = scanInt(b, i, strconv.IntSize)
			req.MaxTokens = int(n)
		case "stream":
			field = 1 << 4
			req.Stream, i, res = scanBool(b, i)
		case "prefix_group":
			field = 1 << 5
			req.PrefixGroup, i, res = scanInt(b, i, 64)
		case "shared_prefix_len":
			field = 1 << 6
			n, i, res = scanInt(b, i, strconv.IntSize)
			req.SharedPrefixLen = int(n)
		default:
			return scanFallback
		}
		if res != scanDone {
			return res
		}
		if seen&field != 0 {
			return scanFallback
		}
		seen |= field
		if i = skipSpace(b, i); i == len(b) {
			return scanMore
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			req.Model, req.Prompt = string(model), string(prompt)
			return scanDone
		default:
			return scanFallback
		}
	}
}

// skipSpace returns the index of the first non-whitespace byte at or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString scans a string literal at b[i] and returns its contents and
// the index after its closing quote.
func scanString(b []byte, i int) ([]byte, int, scanResult) {
	if i == len(b) {
		return nil, i, scanMore
	}
	if b[i] != '"' {
		return nil, i, scanFallback
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			if !utf8.Valid(b[i+1 : j]) {
				return nil, i, scanFallback
			}
			return b[i+1 : j], j + 1, scanDone
		case c == '\\' || c < 0x20:
			return nil, i, scanFallback
		}
	}
	return nil, i, scanMore
}

// maxIntLen is the length of the longest int64 literal, -9223372036854775808.
const maxIntLen = 20

// scanInt scans a decimal integer literal at b[i] that fits in bits.
func scanInt(b []byte, i, bits int) (int64, int, scanResult) {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	digits := j
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	switch {
	case j-i > maxIntLen:
		return 0, i, scanFallback
	case j == len(b):
		return 0, i, scanMore // more digits, a fraction or an exponent may follow
	case j == digits, b[digits] == '0' && j > digits+1, b[j] == '.', b[j] == 'e', b[j] == 'E':
		return 0, i, scanFallback
	}
	v, err := strconv.ParseInt(string(b[i:j]), 10, bits)
	if err != nil {
		return 0, i, scanFallback
	}
	return v, j, scanDone
}

// scanBool scans true or false at b[i].
func scanBool(b []byte, i int) (bool, int, scanResult) {
	lit := "false"
	if b[i] == 't' {
		lit = "true"
	}
	n := min(len(b)-i, len(lit))
	switch {
	case string(b[i:i+n]) != lit[:n]:
		return false, i, scanFallback
	case n < len(lit):
		return false, i, scanMore
	}
	return lit == "true", i + n, scanDone
}

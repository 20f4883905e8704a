package sse

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"
)

// FuzzSSEReader feeds arbitrary streams through Reader at read boundaries
// the fuzzer picks and checks the payloads against a reference parse of the
// whole input. long, when odd, splices a run of filler bytes either side of
// MaxLineBytes into the input, so the line cap is exercised too; its reads
// are then 16 KiB units, as the scanner rescans a partial line per read.
// The seeds under testdata/fuzz name the framings they cover.
func FuzzSSEReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, in, cuts []byte, long uint16) {
		unit := 1
		if long&1 != 0 {
			unit = 1 << 14
			at := int(long>>4) % (len(in) + 1)
			filler := bytes.Repeat([]byte{'a'}, MaxLineBytes-8+int(long>>1)%8)
			in = slices.Concat(in[:at], filler, in[at:])
		}
		want, wantTooLong := referenceParse(in)
		for _, r := range []io.Reader{bytes.NewReader(in), &chunkedReader{in: in, cuts: cuts, unit: unit}} {
			got, err := readAll(r)
			if wantTooLong {
				if !errors.Is(err, bufio.ErrTooLong) {
					t.Fatalf("a line of MaxLineBytes or more gave err %v, want bufio.ErrTooLong", err)
				}
			} else if err != nil {
				t.Fatalf("err %v", err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("payloads %q, reference %q", got, want)
			}
		}
	})
}

// referenceParse splits the whole input on LF, strips one trailing CR per
// line and one optional space after "data:". It stops at the first line the
// reader cannot buffer (MaxLineBytes or more before its LF), reporting it.
func referenceParse(in []byte) (payloads []string, tooLong bool) {
	for _, line := range bytes.Split(in, []byte("\n")) {
		if len(line) >= MaxLineBytes {
			return payloads, true
		}
		line = bytes.TrimSuffix(line, []byte("\r"))
		if p, ok := bytes.CutPrefix(line, []byte("data:")); ok {
			payloads = append(payloads, string(bytes.TrimPrefix(p, []byte(" "))))
		}
	}
	return payloads, false
}

// readAll drains a Reader into its payloads and the error that ended it
// (nil at a clean EOF).
func readAll(r io.Reader) ([]string, error) {
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

// chunkedReader returns in at most (cuts[i]+1)·unit bytes per Read,
// cycling through cuts (all of what is left when cuts is empty), and
// io.EOF only once nothing is left.
type chunkedReader struct {
	in   []byte
	cuts []byte
	unit int
	i    int
}

func (c *chunkedReader) Read(p []byte) (int, error) {
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := len(c.in)
	if len(c.cuts) > 0 {
		n = min(n, (int(c.cuts[c.i%len(c.cuts)])+1)*c.unit)
		c.i++
	}
	n = copy(p, c.in[:n])
	c.in = c.in[n:]
	return n, nil
}

package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseExposition decodes Prometheus text exposition 0.0.4 back into
// families — the inverse of WriteFamilies, used by the cluster
// federator to ingest a remote replica's /metrics page. Histogram
// _bucket/_sum/_count samples attach to their base family. Samples with
// no HELP/TYPE preamble get an implicit "untyped" family.
func ParseExposition(r io.Reader) ([]Family, error) {
	var fams []Family
	index := make(map[string]int)
	family := func(name string) *Family {
		if i, ok := index[name]; ok {
			return &fams[i]
		}
		index[name] = len(fams)
		fams = append(fams, Family{Name: name, Type: "untyped"})
		return &fams[len(fams)-1]
	}
	// sampleFamily resolves a sample name to its family, peeling
	// histogram suffixes only when the base family is already declared.
	sampleFamily := func(name string) *Family {
		if _, ok := index[name]; ok {
			return family(name)
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base, found := strings.CutSuffix(name, suffix)
			if !found {
				continue
			}
			if i, ok := index[base]; ok && fams[i].Type == "histogram" {
				return &fams[i]
			}
		}
		return family(name)
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			if !validName(fields[2], true) {
				return nil, fmt.Errorf("metrics: line %d: invalid metric name %q", lineNo, fields[2])
			}
			f := family(fields[2])
			switch {
			case len(fields) < 4: // bare "# HELP name": declares the family, says nothing
			case fields[1] == "HELP":
				f.Help = fields[3]
			case len(f.Samples) > 0:
				// Histogram suffixes were resolved against the old type.
				return nil, fmt.Errorf("metrics: line %d: TYPE of %q after its samples", lineNo, f.Name)
			default:
				f.Type = fields[3]
			}
			continue
		}
		sample, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
		f := sampleFamily(sample.Name)
		f.Samples = append(f.Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fams, nil
}

// validName reports whether s is a metric name, [a-zA-Z_:][a-zA-Z0-9_:]*,
// or with colon false a label name, the same without the colon. Anything
// else — whitespace and braces above all — would not survive WriteFamilies
// and a second parse as the same name.
func validName(s string, colon bool) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':' && colon:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return s != ""
}

// parseSampleLine decodes `name{l1="v1",l2="v2"} value [timestamp]`.
func parseSampleLine(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexAny(rest, "{ \t"); i < 0 {
		return s, fmt.Errorf("sample %q has no value", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if !validName(s.Name, true) {
		return s, fmt.Errorf("sample %q has an invalid name", line)
	}
	if strings.HasPrefix(rest, "{") {
		end, labels, err := parseLabelSet(rest)
		if err != nil {
			return s, fmt.Errorf("sample %q: %w", line, err)
		}
		s.Labels = labels
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return s, fmt.Errorf("sample %q has a malformed value", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("sample %q: bad value: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabelSet decodes a {name="value",...} block starting at s[0]=='{',
// returning the index one past the closing brace. Escapes \\, \", \n
// inside values are unescaped (the inverse of formatLabels).
func parseLabelSet(s string) (int, []Label, error) {
	var labels []Label
	i := 1
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i >= len(s) {
			return 0, nil, fmt.Errorf("unterminated label set")
		}
		if s[i] == '}' {
			return i + 1, labels, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return 0, nil, fmt.Errorf("label without '='")
		}
		name := strings.TrimSpace(s[i : i+eq])
		if !validName(name, false) {
			return 0, nil, fmt.Errorf("invalid label name %q", name)
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return 0, nil, fmt.Errorf("unquoted label value")
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, nil, fmt.Errorf("unterminated label value")
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return 0, nil, fmt.Errorf("dangling escape in label value")
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, nil, fmt.Errorf("unknown escape \\%c", s[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels = append(labels, Label{Name: name, Value: val.String()})
	}
}

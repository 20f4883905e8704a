package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// Chrome trace-event export. Each pipeline stage renders as one thread
// (tid = stage), each inter-stage link as its own thread (tid = xferTidBase
// + source stage), and driver prep as one more — so Perfetto shows the
// paper's Figure 1/5 per-stage micro-batch timeline directly. Thread-name
// metadata events label the lanes.

const (
	xferTidBase = 1000 // link lanes: tid = xferTidBase + source stage
	prepTid     = 2000 // driver prep lane
)

// chromeEvent is one trace-event ("X" complete events for spans, "M"
// metadata events for lane names).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  *float64       `json:"dur,omitempty"` // microseconds ("X" only)
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func spanTid(s Span) int {
	switch s.Kind {
	case KindXfer:
		return xferTidBase + int(s.Stage)
	case KindPrep:
		return prepTid
	default:
		return int(s.Stage)
	}
}

// WriteChrome renders the retained spans as Chrome trace-event JSON (array
// format), sorted by start time, preceded by thread-name metadata.
func (r *Recorder) WriteChrome(w io.Writer) error {
	return writeChromeSpans(w, r.Spans(), r.Stages())
}

// WriteChromeFile writes the Chrome trace to path and returns the
// recorder's accounting over [0, window].
func (r *Recorder) WriteChromeFile(path string, window time.Duration) (Accounting, error) {
	f, err := os.Create(path)
	if err != nil {
		return Accounting{}, err
	}
	if err := r.WriteChrome(f); err != nil {
		f.Close()
		return Accounting{}, err
	}
	return r.AccountOver(window), f.Close()
}

func writeChromeSpans(w io.Writer, spans []Span, stages int) error {
	ordered := append([]Span(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Start < ordered[j].Start })

	events := make([]chromeEvent, 0, len(ordered)+2*stages+1)
	for s := 0; s < stages; s++ {
		events = append(events,
			laneName(s, fmt.Sprintf("stage %d", s)),
			laneName(xferTidBase+s, fmt.Sprintf("link %d→%d", s, s+1)))
	}
	events = append(events, laneName(prepTid, "driver prep"))
	for _, s := range ordered {
		dur := float64(s.End-s.Start) / float64(time.Microsecond)
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("%s mb%d", s.Kind, s.Seq),
			Ph:   "X",
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  &dur,
			Tid:  spanTid(s),
			Args: map[string]any{
				"kind":   s.Kind.String(),
				"stage":  int(s.Stage),
				"seq":    int(s.Seq),
				"tokens": int(s.Tokens),
			},
		})
	}
	return json.NewEncoder(w).Encode(events)
}

func laneName(tid int, name string) chromeEvent {
	return chromeEvent{
		Name: "thread_name",
		Ph:   "M",
		Tid:  tid,
		Args: map[string]any{"name": name},
	}
}

// DecodedTrace is the result of ReadChrome: the spans reconstructed from a
// trace-event file plus the stage count inferred from exec spans.
type DecodedTrace struct {
	Spans  []Span
	Stages int // max exec/xfer stage + 1
}

// Account summarizes the decoded spans; a non-positive window uses the
// spans' extent (see AccountSpans).
func (d *DecodedTrace) Account(window time.Duration) Accounting {
	return AccountSpans(d.Spans, max(d.Stages, 1), window)
}

// readChromeEvents is the decode both trace readers share. It accepts the
// bare-array format and the {"traceEvents": [...]} object format, decodes
// each event strictly (unknown fields are errors), skips lane metadata,
// rejects unknown phases and missing, negative or NaN ts/dur, and hands every
// complete ("X") event to visit with its interval in nanoseconds. Errors,
// visit's included, are reported under the event's index.
func readChromeEvents(rd io.Reader, visit func(ev chromeEvent, start, end time.Duration) error) error {
	raw, err := io.ReadAll(rd)
	if err != nil {
		return err
	}
	var events []json.RawMessage
	if err := json.Unmarshal(raw, &events); err != nil {
		var obj struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err2 := json.Unmarshal(raw, &obj); err2 != nil || obj.TraceEvents == nil {
			return fmt.Errorf("obs: not a trace-event array or object: %v", err)
		}
		events = obj.TraceEvents
	}
	for i, rawEv := range events {
		var ev chromeEvent
		dec := json.NewDecoder(bytes.NewReader(rawEv))
		dec.DisallowUnknownFields()
		err := dec.Decode(&ev)
		switch {
		case err != nil:
		case ev.Ph == "M":
			continue // lane metadata
		case ev.Ph != "X":
			err = fmt.Errorf("unsupported phase %q", ev.Ph)
		case ev.Ts < 0 || math.IsNaN(ev.Ts):
			err = fmt.Errorf("bad ts %v", ev.Ts)
		case ev.Dur == nil || *ev.Dur < 0 || math.IsNaN(*ev.Dur):
			err = errors.New("missing or negative dur")
		default:
			// Round, don't truncate: ts/dur are float microseconds, and two
			// spans sharing an endpoint take different float paths (ts+dur
			// each), so truncation can land them 1ns apart. The float error
			// is far below 0.5ns, so rounding recovers the exact original ns.
			err = visit(ev,
				time.Duration(math.Round(ev.Ts*float64(time.Microsecond))),
				time.Duration(math.Round((ev.Ts+*ev.Dur)*float64(time.Microsecond))))
		}
		if err != nil {
			return fmt.Errorf("obs: event %d: %w", i, err)
		}
	}
	return nil
}

// ReadChrome decodes and validates Chrome trace-event JSON produced by
// WriteChrome (the -trace-out round-trip gllm-sim's tests make). On top of
// readChromeEvents' checks it rejects exec/xfer spans missing stage/kind
// args and kind/lane mismatches.
func ReadChrome(rd io.Reader) (*DecodedTrace, error) {
	out := &DecodedTrace{}
	err := readChromeEvents(rd, func(ev chromeEvent, start, end time.Duration) error {
		if ev.Name == "" {
			return errors.New("empty name")
		}
		kindName, ok := ev.Args["kind"].(string)
		if !ok {
			return errors.New("missing args.kind")
		}
		kind, err := KindByName(kindName)
		if err != nil {
			return err
		}
		stage, err := argInt(ev.Args, "stage")
		if err != nil {
			return err
		}
		seq, err := argInt(ev.Args, "seq")
		if err != nil {
			return err
		}
		tokens, err := argInt(ev.Args, "tokens")
		if err != nil {
			return err
		}
		if kind == KindPrep {
			if stage != PrepStage {
				return fmt.Errorf("prep span on stage %d", stage)
			}
		} else if stage < 0 {
			return fmt.Errorf("%v span on stage %d", kind, stage)
		}
		s := Span{Start: start, End: end, Seq: int32(seq), Tokens: int32(tokens), Stage: int16(stage), Kind: kind}
		if want := spanTid(s); ev.Tid != want {
			return fmt.Errorf("%v span for stage %d on tid %d, want %d", kind, stage, ev.Tid, want)
		}
		out.Spans = append(out.Spans, s)
		if kind != KindPrep && stage+1 > out.Stages {
			out.Stages = stage + 1
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(out.Spans) == 0 {
		return nil, fmt.Errorf("obs: trace contains no spans")
	}
	return out, nil
}

func argInt(args map[string]any, key string) (int, error) {
	v, ok := args[key]
	if !ok {
		return 0, fmt.Errorf("missing args.%s", key)
	}
	f, ok := v.(float64)
	if !ok || f != math.Trunc(f) {
		return 0, fmt.Errorf("args.%s = %v is not an integer", key, v)
	}
	return int(f), nil
}

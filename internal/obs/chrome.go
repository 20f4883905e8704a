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
	"strings"
	"time"
)

// Chrome trace-event export. One document holds two lane families, told
// apart by tid:
//
//   - stage lanes: each pipeline stage (tid = stage), each inter-stage link
//     (tid = xferTidBase + source stage) and driver prep (prepTid), so
//     Perfetto shows the paper's Figure 1/5 per-stage micro-batch timeline
//     directly;
//   - request lanes: one per traced request (tid = reqTidBase + lane
//     ordinal), holding both its router-side and its replica-side spans.
//     Per-process ReqExports are aligned by their wall-clock origin anchors
//     (valid for same-host processes; offsets within a process stay
//     monotonic-exact), so the lane reads as "where every millisecond of
//     this request went" across the HTTP hop.
//
// Thread-name metadata events label the lanes.

const (
	xferTidBase = 1000 // link lanes: tid = xferTidBase + source stage
	prepTid     = 2000 // driver prep lane
	reqTidBase  = 3000 // request lanes: tid = reqTidBase + lane ordinal
)

// maxMergedNs bounds the document clock (6.5 days): float-microsecond ts
// and ts+dur round back to the exact nanosecond only below about 2^50 ns.
const maxMergedNs = 1 << 49

// maxOffsetNs bounds the origin shifts and span offsets the writer adds, so
// no sum wraps (73 years: no recorder's clock is that far off).
const maxOffsetNs = 1 << 61

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

// WriteChrome writes one Chrome trace-event JSON document (array format):
// the stage lanes of the spans stages retains (nil for none), then one
// request lane per trace ID across the exports, each family's spans sorted
// by start.
//
// Stage spans keep their recorded times. Request spans are placed on one
// clock by their exports' Unix-nanosecond origins: with stage lanes its
// zero is the stage clock's, at stagesAt on the exports' clock; without,
// it is the earliest request span's start, so spans keep their exact
// nanoseconds however long their recorders have been up. A request span
// that falls before that zero or ends more than maxMergedNs after it, or
// is offset beyond maxOffsetNs (a clock days or decades off), is left out.
// WriteChrome refuses, writing nothing, an export that fails Check.
func WriteChrome(w io.Writer, stages *Recorder, stagesAt int64, exports ...ReqExport) error {
	for i, ex := range exports {
		if err := ex.Check(); err != nil {
			return fmt.Errorf("obs: export %d: %w", i, err)
		}
	}
	events := []chromeEvent{}
	if stages != nil {
		events = appendStageEvents(events, stages.Spans(), stages.Stages())
	}
	events = appendReqEvents(events, mergeReqSpans(stages != nil, stagesAt, exports))
	return json.NewEncoder(w).Encode(events)
}

// WriteChromeFile writes WriteChrome's document to path; a refused export
// leaves no file.
func WriteChromeFile(path string, stages *Recorder, stagesAt int64, exports ...ReqExport) error {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, stages, stagesAt, exports...); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o666) // os.Create's mode: the umask decides
}

func appendStageEvents(events []chromeEvent, spans []Span, stages int) []chromeEvent {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for s := 0; s < stages; s++ {
		events = append(events,
			laneName(s, fmt.Sprintf("stage %d", s)),
			laneName(xferTidBase+s, fmt.Sprintf("link %d→%d", s, s+1)))
	}
	events = append(events, laneName(prepTid, "driver prep"))
	for _, s := range spans {
		events = append(events, spanEvent(fmt.Sprintf("%s mb%d", s.Kind, s.Seq), spanTid(s), s.Start, s.End,
			map[string]any{
				"kind":   s.Kind.String(),
				"stage":  int(s.Stage),
				"seq":    int(s.Seq),
				"tokens": int(s.Tokens),
			}))
	}
	return events
}

// mergeReqSpans re-bases the exports' spans onto the document clock
// WriteChrome describes and sorts them by start.
func mergeReqSpans(onStages bool, stagesAt int64, exports []ReqExport) []ReqSpan {
	base, zero := int64(math.MaxInt64), time.Duration(math.MaxInt64)
	if onStages {
		base, zero = stagesAt, 0
	} else {
		for _, ex := range exports {
			if len(ex.Spans) > 0 {
				base = min(base, ex.OriginUnixNano)
			}
		}
	}
	var spans []ReqSpan
	for _, ex := range exports {
		shift := ex.OriginUnixNano - base
		if (shift >= 0) != (ex.OriginUnixNano >= base) || shift < -maxOffsetNs || shift > maxOffsetNs {
			continue // the difference wrapped, or the origin is that far off
		}
		for _, s := range ex.Spans {
			if s.Start < -maxOffsetNs || s.End > maxOffsetNs {
				continue
			}
			s.Start += time.Duration(shift)
			s.End += time.Duration(shift)
			if !onStages {
				zero = min(zero, s.Start)
			}
			spans = append(spans, s)
		}
	}
	kept := spans[:0]
	for _, s := range spans {
		if s.Start >= zero && s.End-zero <= maxMergedNs {
			s.Start -= zero
			s.End -= zero
			kept = append(kept, s)
		}
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Start < kept[j].Start })
	return kept
}

func appendReqEvents(events []chromeEvent, spans []ReqSpan) []chromeEvent {
	// One lane per trace, ordered by first span start.
	lanes := make(map[TraceID]int)
	var order []TraceID
	for _, s := range spans {
		if _, ok := lanes[s.Trace]; !ok {
			lanes[s.Trace] = reqTidBase + len(order)
			order = append(order, s.Trace)
		}
	}
	for _, tr := range order {
		events = append(events, laneName(lanes[tr], "req "+tr.String()))
	}
	for _, s := range spans {
		args := map[string]any{
			"trace":   s.Trace.String(),
			"name":    s.Name,
			"side":    s.Side,
			"attempt": int(s.Attempt),
		}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		events = append(events, spanEvent(s.Side+" "+s.Name, lanes[s.Trace], s.Start, s.End, args))
	}
	return events
}

func spanEvent(name string, tid int, start, end time.Duration, args map[string]any) chromeEvent {
	dur := float64(end-start) / float64(time.Microsecond)
	return chromeEvent{
		Name: name,
		Ph:   "X",
		Ts:   float64(start) / float64(time.Microsecond),
		Dur:  &dur,
		Tid:  tid,
		Args: args,
	}
}

func laneName(tid int, name string) chromeEvent {
	return chromeEvent{
		Name: "thread_name",
		Ph:   "M",
		Tid:  tid,
		Args: map[string]any{"name": name},
	}
}

// DecodedTrace is the result of ReadChrome: the spans of both lane
// families, on the document's clock.
type DecodedTrace struct {
	Spans    []Span // stage lanes
	Stages   int    // max exec/xfer stage + 1
	Requests []ReqSpan
	// ByID groups Requests by trace, which is by lane: the reader rejects
	// a trace split across lanes and a lane shared by traces.
	ByID map[TraceID][]ReqSpan
}

// Account summarizes the decoded stage spans; a non-positive window uses
// the spans' extent (see AccountSpans).
func (d *DecodedTrace) Account(window time.Duration) Accounting {
	return AccountSpans(d.Spans, max(d.Stages, 1), window)
}

// ReadChrome decodes and validates Chrome trace-event JSON produced by
// WriteChrome. It accepts the bare-array format and the {"traceEvents":
// [...]} object format, decodes each event strictly (unknown fields are
// errors), skips lane metadata, and rejects unknown phases, missing,
// negative or NaN ts/dur, and a span ending beyond maxMergedNs. Each
// complete ("X") event is read by its tid: below reqTidBase as a stage span
// (stageSpan), at or above it as a request span (reqSpan). A file with no
// span of either family is an error.
func ReadChrome(rd io.Reader) (*DecodedTrace, error) {
	raw, err := io.ReadAll(rd)
	if err != nil {
		return nil, err
	}
	var events []json.RawMessage
	if err := json.Unmarshal(raw, &events); err != nil {
		var obj struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err2 := json.Unmarshal(raw, &obj); err2 != nil || obj.TraceEvents == nil {
			return nil, fmt.Errorf("obs: not a trace-event array or object: %v", err)
		}
		events = obj.TraceEvents
	}
	out := &DecodedTrace{ByID: make(map[TraceID][]ReqSpan)}
	lanes, owners := make(map[TraceID]int), make(map[int]TraceID)
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
		case ev.Tid < reqTidBase:
			var s Span
			if s, err = stageSpan(ev); err == nil {
				out.Spans = append(out.Spans, s)
				if s.Kind != KindPrep {
					out.Stages = max(out.Stages, int(s.Stage)+1)
				}
			}
		default:
			var s ReqSpan
			if s, err = reqSpan(ev); err != nil {
				break
			}
			if prev, seen := lanes[s.Trace]; seen && prev != ev.Tid {
				err = fmt.Errorf("trace %s split across lanes %d and %d", s.Trace, prev, ev.Tid)
			} else if owner, seen := owners[ev.Tid]; seen && owner != s.Trace {
				err = fmt.Errorf("lane %d shared by traces %s and %s", ev.Tid, owner, s.Trace)
			} else {
				lanes[s.Trace], owners[ev.Tid] = ev.Tid, s.Trace
				out.Requests = append(out.Requests, s)
				out.ByID[s.Trace] = append(out.ByID[s.Trace], s)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("obs: event %d: %w", i, err)
		}
	}
	if len(out.Spans)+len(out.Requests) == 0 {
		return nil, errors.New("obs: trace contains no spans")
	}
	return out, nil
}

// interval returns an X event's interval in nanoseconds.
func interval(ev chromeEvent) (start, end time.Duration, err error) {
	if ev.Ts < 0 || math.IsNaN(ev.Ts) {
		return 0, 0, fmt.Errorf("bad ts %v", ev.Ts)
	}
	if ev.Dur == nil || *ev.Dur < 0 || math.IsNaN(*ev.Dur) {
		return 0, 0, errors.New("missing or negative dur")
	}
	// Round, don't truncate: ts/dur are float microseconds, and two spans
	// sharing an endpoint take different float paths (ts+dur each), so
	// truncation can land them 1ns apart. The float error is far below
	// 0.5ns, so rounding recovers the exact original ns — within
	// maxMergedNs, which bounds ts too, since dur is not negative.
	s := math.Round(ev.Ts * float64(time.Microsecond))
	e := math.Round((ev.Ts + *ev.Dur) * float64(time.Microsecond))
	if e > maxMergedNs {
		return 0, 0, fmt.Errorf("span [%v, %v]µs ends past the exact range", ev.Ts, ev.Ts+*ev.Dur)
	}
	return time.Duration(s), time.Duration(e), nil
}

// stageSpan reads a stage-lane event: a kind, a stage on the lane the kind
// puts it (PrepStage for prep, below xferTidBase otherwise), and int32
// seq and tokens.
func stageSpan(ev chromeEvent) (Span, error) {
	start, end, err := interval(ev)
	if err != nil {
		return Span{}, err
	}
	if ev.Name == "" {
		return Span{}, errors.New("empty name")
	}
	kindName, ok := ev.Args["kind"].(string)
	if !ok {
		return Span{}, errors.New("missing args.kind")
	}
	kind, err := KindByName(kindName)
	if err != nil {
		return Span{}, err
	}
	stage, err := argInt(ev.Args, "stage", PrepStage, xferTidBase-1)
	if err != nil {
		return Span{}, err
	}
	seq, err := argInt(ev.Args, "seq", math.MinInt32, math.MaxInt32)
	if err != nil {
		return Span{}, err
	}
	tokens, err := argInt(ev.Args, "tokens", math.MinInt32, math.MaxInt32)
	if err != nil {
		return Span{}, err
	}
	if (kind == KindPrep) != (stage == PrepStage) {
		return Span{}, fmt.Errorf("%v span on stage %d", kind, stage)
	}
	s := Span{Start: start, End: end, Seq: int32(seq), Tokens: int32(tokens), Stage: int16(stage), Kind: kind}
	if want := spanTid(s); ev.Tid != want {
		return Span{}, fmt.Errorf("%v span for stage %d on tid %d, want %d", kind, stage, ev.Tid, want)
	}
	return s, nil
}

// reqSpan reads a request-lane event: trace, name and side args, and an
// int32 attempt.
func reqSpan(ev chromeEvent) (ReqSpan, error) {
	start, end, err := interval(ev)
	if err != nil {
		return ReqSpan{}, err
	}
	traceStr, ok := ev.Args["trace"].(string)
	if !ok {
		return ReqSpan{}, errors.New("missing args.trace")
	}
	trace, ok := ParseTraceID(traceStr)
	if !ok {
		return ReqSpan{}, fmt.Errorf("bad trace ID %q", traceStr)
	}
	name, ok := ev.Args["name"].(string)
	if !ok || name == "" {
		return ReqSpan{}, errors.New("missing args.name")
	}
	side, ok := ev.Args["side"].(string)
	if !ok || (side != SideRouter && side != SideReplica) {
		return ReqSpan{}, fmt.Errorf("bad args.side %v", ev.Args["side"])
	}
	attempt, err := argInt(ev.Args, "attempt", math.MinInt32, math.MaxInt32)
	if err != nil {
		return ReqSpan{}, err
	}
	detail, _ := ev.Args["detail"].(string)
	return ReqSpan{Trace: trace, Name: name, Side: side, Detail: detail, Attempt: int32(attempt), Start: start, End: end}, nil
}

// argInt reads an integer arg in [lo, hi], checked before the conversion
// so no value is cut to fit.
func argInt(args map[string]any, key string, lo, hi int) (int, error) {
	v, ok := args[key]
	if !ok {
		return 0, fmt.Errorf("missing args.%s", key)
	}
	f, ok := v.(float64)
	if !ok || f != math.Trunc(f) {
		return 0, fmt.Errorf("args.%s = %v is not an integer", key, v)
	}
	if f < float64(lo) || f > float64(hi) {
		return 0, fmt.Errorf("args.%s = %v is outside [%d, %d]", key, v, lo, hi)
	}
	return int(f), nil
}

// Validate enforces the request-lane invariants on top of the decode
// checks:
//
//  1. spans of the same (trace, side, name) series never overlap —
//     retries and backoffs are sequential, lifecycle phases disjoint;
//  2. a trace with router-side spans has exactly one router "request"
//     root, and every other span of that trace (both sides) lies inside
//     it — the router span encloses the replica spans.
//
// skew is the cross-process clock tolerance: replica-side spans may
// exceed the router root by at most skew (same-host wall clocks are
// close but not identical).
func (d *DecodedTrace) Validate(skew time.Duration) error {
	for trace, spans := range d.ByID {
		// 1. No overlap within a (side, name) series.
		bySeries := make(map[string][]ReqSpan)
		for _, s := range spans {
			k := s.Side + "\x00" + s.Name
			bySeries[k] = append(bySeries[k], s)
		}
		for k, series := range bySeries {
			sort.Slice(series, func(i, j int) bool { return series[i].Start < series[j].Start })
			for i := 1; i < len(series); i++ {
				if series[i].Start < series[i-1].End {
					side, name, _ := strings.Cut(k, "\x00")
					return fmt.Errorf("obs: trace %s: overlapping %s %q spans at %v and %v",
						trace, side, name, series[i-1].Start, series[i].Start)
				}
			}
		}

		// 2. Router root encloses everything.
		var roots []ReqSpan
		router := false
		for _, s := range spans {
			if s.Side == SideRouter {
				router = true
				if s.Name == SpanRequest {
					roots = append(roots, s)
				}
			}
		}
		if !router {
			continue // replica-only recording (standalone gllm-server)
		}
		if len(roots) != 1 {
			return fmt.Errorf("obs: trace %s: %d router request roots, want 1", trace, len(roots))
		}
		root := roots[0]
		for _, s := range spans {
			if s.Name == SpanRequest && s.Side == SideRouter {
				continue
			}
			tol := time.Duration(0)
			if s.Side == SideReplica {
				tol = skew
			}
			if s.Start < root.Start-tol || s.End > root.End+tol {
				return fmt.Errorf("obs: trace %s: %s %q span [%v, %v] escapes router root [%v, %v]",
					trace, s.Side, s.Name, s.Start, s.End, root.Start, root.End)
			}
		}
	}
	return nil
}

// Summary renders the request lanes, one line per trace in lane order:
// span counts by side and the trace's extent, for tracecheck output.
func (d *DecodedTrace) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d traced requests, %d spans\n", len(d.ByID), len(d.Requests))
	printed := make(map[TraceID]bool, len(d.ByID))
	for _, first := range d.Requests {
		if printed[first.Trace] {
			continue
		}
		printed[first.Trace] = true
		var nRouter, nReplica int
		lo, hi := first.Start, first.End
		for _, s := range d.ByID[first.Trace] {
			if s.Side == SideRouter {
				nRouter++
			} else {
				nReplica++
			}
			lo, hi = min(lo, s.Start), max(hi, s.End)
		}
		fmt.Fprintf(&b, "  %s: %d router + %d replica spans over %.3fms\n",
			first.Trace, nRouter, nReplica, float64(hi-lo)/float64(time.Millisecond))
	}
	return b.String()
}

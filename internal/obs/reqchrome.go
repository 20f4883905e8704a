package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
	"unicode/utf8"
)

// Merged request-trace export. Each traced request renders as ONE lane
// (tid = reqTidBase + lane ordinal) holding both router-side and
// replica-side spans: per-process ReqExports are aligned onto a shared
// clock using their wall-clock origin anchors (valid for same-host
// processes; offsets within a process stay monotonic-exact), so the
// Chrome/Perfetto view reads as "where every millisecond of this
// request went" across the HTTP hop.

// reqTidBase keeps request lanes clear of the engine-trace lanes
// (stages 0.., xferTidBase=1000, prepTid=2000).
const reqTidBase = 3000

// mergedReqSpan is a ReqSpan re-based onto the merged clock.
type mergedReqSpan struct {
	ReqSpan
	abs time.Duration // start offset from the merged base
}

// maxMergedNs bounds the merged clock (6.5 days): float-microsecond ts and
// ts+dur round back to the exact nanosecond only below about 2^50 ns.
const maxMergedNs = 1 << 49

// maxOffsetNs bounds the origin shifts and span offsets the writer adds, so
// no sum wraps (73 years: no recorder's clock is that far off).
const maxOffsetNs = 1 << 61

// WriteChromeRequests merges per-process request-span exports into one
// Chrome trace-event JSON document. Spans of the same trace ID share a
// lane regardless of which export (process) recorded them. The merged
// clock's zero is the earliest span's start, so spans keep their exact
// nanoseconds however long their recorders have been up; a span ending
// more than maxMergedNs after that zero, or offset beyond maxOffsetNs (a
// clock days or decades off), is left out. It refuses an export holding a
// span whose fields would not read back.
func WriteChromeRequests(w io.Writer, exports ...ReqExport) error {
	origin := int64(math.MaxInt64)
	for _, ex := range exports {
		if len(ex.Spans) > 0 {
			origin = min(origin, ex.OriginUnixNano)
		}
	}

	var spans []mergedReqSpan
	zero := time.Duration(math.MaxInt64)
	for ei, ex := range exports {
		shift := uint64(ex.OriginUnixNano) - uint64(origin) // exact: origin is the minimum
		for si, es := range ex.Spans {
			trace, ok := ParseTraceID(es.Trace)
			if !ok {
				return fmt.Errorf("obs: export %d span %d: bad trace ID %q", ei, si, es.Trace)
			}
			if es.EndNs < es.StartNs {
				return fmt.Errorf("obs: export %d span %d: end before start", ei, si)
			}
			if es.Name == "" || es.Side != SideRouter && es.Side != SideReplica || es.Attempt != int(int32(es.Attempt)) ||
				!utf8.ValidString(es.Name) || !utf8.ValidString(es.Detail) {
				return fmt.Errorf("obs: export %d span %d: name %q, side %q, attempt %d or detail %q would not read back",
					ei, si, es.Name, es.Side, es.Attempt, es.Detail)
			}
			if shift > maxOffsetNs || es.StartNs < -maxOffsetNs || es.EndNs > maxOffsetNs {
				continue
			}
			s := mergedReqSpan{
				ReqSpan: ReqSpan{
					Trace:   trace,
					Name:    es.Name,
					Side:    es.Side,
					Detail:  es.Detail,
					Attempt: int32(es.Attempt),
					Start:   time.Duration(es.StartNs),
					End:     time.Duration(es.EndNs),
				},
				abs: time.Duration(int64(shift) + es.StartNs),
			}
			zero = min(zero, s.abs)
			spans = append(spans, s)
		}
	}
	kept := spans[:0]
	for _, s := range spans {
		if s.abs-zero <= maxMergedNs-(s.End-s.Start) {
			s.abs -= zero
			kept = append(kept, s)
		}
	}
	spans = kept
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].abs < spans[j].abs })

	// One lane per trace, ordered by first span start.
	lanes := make(map[TraceID]int)
	var order []TraceID
	for _, s := range spans {
		if _, ok := lanes[s.Trace]; !ok {
			lanes[s.Trace] = reqTidBase + len(order)
			order = append(order, s.Trace)
		}
	}

	events := make([]chromeEvent, 0, len(spans)+len(order))
	for _, tr := range order {
		events = append(events, laneName(lanes[tr], "req "+tr.String()))
	}
	for _, s := range spans {
		dur := float64(s.End-s.Start) / float64(time.Microsecond)
		args := map[string]any{
			"trace":   s.Trace.String(),
			"name":    s.Name,
			"side":    s.Side,
			"attempt": int(s.Attempt),
		}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		events = append(events, chromeEvent{
			Name: s.Side + " " + s.Name,
			Ph:   "X",
			Ts:   float64(s.abs) / float64(time.Microsecond),
			Dur:  &dur,
			Tid:  lanes[s.Trace],
			Args: args,
		})
	}
	return json.NewEncoder(w).Encode(events)
}

// DecodedReqTrace is the result of ReadChromeRequests: merged-clock
// request spans plus the lane each trace occupied.
type DecodedReqTrace struct {
	Spans []ReqSpan       // Start/End re-based onto the merged clock
	Lanes map[TraceID]int // trace → tid
	ByID  map[TraceID][]ReqSpan
}

// Traces returns the decoded trace IDs in lane order.
func (d *DecodedReqTrace) Traces() []TraceID {
	ids := make([]TraceID, 0, len(d.Lanes))
	for id := range d.Lanes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return d.Lanes[ids[i]] < d.Lanes[ids[j]] })
	return ids
}

// ReadChromeRequests decodes and validates the wire format produced by
// WriteChromeRequests: phase-X events on request lanes (tid ≥
// reqTidBase) carrying trace/name/side args. Lane continuity is
// enforced at decode time — a trace pinned to two lanes, or two traces
// sharing one lane, is a hard error.
func ReadChromeRequests(rd io.Reader) (*DecodedReqTrace, error) {
	out := &DecodedReqTrace{
		Lanes: make(map[TraceID]int),
		ByID:  make(map[TraceID][]ReqSpan),
	}
	laneOwner := make(map[int]TraceID)
	err := readChromeEvents(rd, func(ev chromeEvent, start, end time.Duration) error {
		traceStr, ok := ev.Args["trace"].(string)
		if !ok {
			return errors.New("missing args.trace")
		}
		trace, ok := ParseTraceID(traceStr)
		if !ok {
			return fmt.Errorf("bad trace ID %q", traceStr)
		}
		name, ok := ev.Args["name"].(string)
		if !ok || name == "" {
			return errors.New("missing args.name")
		}
		side, ok := ev.Args["side"].(string)
		if !ok || (side != SideRouter && side != SideReplica) {
			return fmt.Errorf("bad args.side %v", ev.Args["side"])
		}
		attempt, err := argInt(ev.Args, "attempt")
		if err != nil {
			return err
		}
		detail, _ := ev.Args["detail"].(string)
		if ev.Tid < reqTidBase {
			return fmt.Errorf("request span on non-request lane tid %d", ev.Tid)
		}
		if prev, seen := out.Lanes[trace]; seen && prev != ev.Tid {
			return fmt.Errorf("trace %s split across lanes %d and %d", trace, prev, ev.Tid)
		}
		if owner, seen := laneOwner[ev.Tid]; seen && owner != trace {
			return fmt.Errorf("lane %d shared by traces %s and %s", ev.Tid, owner, trace)
		}
		out.Lanes[trace] = ev.Tid
		laneOwner[ev.Tid] = trace
		s := ReqSpan{Trace: trace, Name: name, Side: side, Detail: detail, Attempt: int32(attempt), Start: start, End: end}
		out.Spans = append(out.Spans, s)
		out.ByID[trace] = append(out.ByID[trace], s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(out.Spans) == 0 {
		return nil, fmt.Errorf("obs: trace contains no request spans")
	}
	return out, nil
}

// Validate enforces the merged-trace invariants on top of the decode
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
func (d *DecodedReqTrace) Validate(skew time.Duration) error {
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

// Summary renders one line per trace: span counts by side and the
// root's extent, for tracecheck output.
func (d *DecodedReqTrace) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d traced requests, %d spans\n", len(d.ByID), len(d.Spans))
	for _, id := range d.Traces() {
		spans := d.ByID[id]
		var nRouter, nReplica int
		var lo, hi time.Duration
		for i, s := range spans {
			if s.Side == SideRouter {
				nRouter++
			} else {
				nReplica++
			}
			if i == 0 || s.Start < lo {
				lo = s.Start
			}
			if s.End > hi {
				hi = s.End
			}
		}
		fmt.Fprintf(&b, "  %s: %d router + %d replica spans over %.3fms\n",
			id, nRouter, nReplica, float64(hi-lo)/float64(time.Millisecond))
	}
	return b.String()
}

package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gllm/internal/obs"
)

// writeFile writes one trace document with WriteChromeFile.
func writeFile(t *testing.T, stages *obs.Recorder, stagesAt int64, exports ...obs.ReqExport) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := obs.WriteChromeFile(path, stages, stagesAt, exports...); err != nil {
		t.Fatal(err)
	}
	return path
}

func stageSample(stages int) *obs.Recorder {
	rec := obs.NewRecorder(stages, 0)
	for i := 0; i < stages; i++ {
		start := time.Duration(i) * time.Millisecond
		rec.Record(i, obs.KindExec, i, 16, start, start+time.Millisecond)
	}
	return rec
}

// requestSample is a minimal valid request recording: one router root
// enclosing an admit span plus a replica-side queue span, all starting at
// or after the instant it returns on the export's clock.
func requestSample() (obs.ReqExport, int64) {
	rr := obs.NewReqRecorder(0)
	id := obs.TraceID(0xbeef)
	base := time.Now()
	rr.Record(id, obs.SpanRequest, obs.SideRouter, "length", 0, base, base.Add(10*time.Millisecond))
	rr.Record(id, obs.SpanAdmit, obs.SideRouter, "", 0, base, base.Add(time.Millisecond))
	rr.Record(id, obs.SpanQueue, obs.SideReplica, "", 0, base.Add(time.Millisecond), base.Add(2*time.Millisecond))
	return rr.Export(), rr.UnixNano(base)
}

func TestRunValidTrace(t *testing.T) {
	path := writeFile(t, stageSample(4), 0)
	if err := run(path, 4, 0, os.Stdout); err != nil {
		t.Fatal(err)
	}
	// Stage count 0 accepts any trace.
	if err := run(path, 0, 0, os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestRunStageMismatch(t *testing.T) {
	path := writeFile(t, stageSample(2), 0)
	if err := run(path, 4, 0, os.Stdout); err == nil {
		t.Fatal("stage mismatch accepted")
	}
}

func TestRunRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"not":"a trace"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, 0, 0, os.Stdout); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := run(filepath.Join(t.TempDir(), "missing.json"), 0, 0, os.Stdout); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunRequestsValidTrace(t *testing.T) {
	ex, _ := requestSample()
	path := writeFile(t, nil, 0, ex)
	if err := run(path, 0, 50*time.Millisecond, os.Stdout); err != nil {
		t.Fatal(err)
	}
	// A request-only file has no stage lanes to assert.
	if err := run(path, 2, 50*time.Millisecond, os.Stdout); err == nil {
		t.Fatal("-stages 2 accepted a file without stage lanes")
	}
}

// A file holding both families prints the stage accounting, then the
// request summary.
func TestRunPrintsBothFamilies(t *testing.T) {
	ex, at := requestSample()
	path := writeFile(t, stageSample(2), at, ex)
	var out bytes.Buffer
	if err := run(path, 2, 50*time.Millisecond, &out); err != nil {
		t.Fatal(err)
	}
	stages, requests := strings.Index(out.String(), "across 2 stages"), strings.Index(out.String(), "1 traced requests")
	if stages < 0 || requests < stages {
		t.Fatalf("output lacks the stage accounting before the request summary:\n%s", out.String())
	}
}

// Rejected on the file's own terms: no span of either family, and a
// request trace split across two lanes.
func TestRunRejectsEmptyAndSplitTraces(t *testing.T) {
	for name, doc := range map[string]string{
		"no spans":   `[{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"stage 0"}}]`,
		"split lane": `[{"name":"router request","ph":"X","ts":0,"dur":10,"pid":0,"tid":3000,"args":{"trace":"0000000000000001","name":"request","side":"router","attempt":0}},{"name":"router admit","ph":"X","ts":1,"dur":2,"pid":0,"tid":3001,"args":{"trace":"0000000000000001","name":"admit","side":"router","attempt":0}}]`,
	} {
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(path, 0, 0, os.Stdout); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// A negative flag is rejected before the file is opened: a negative -skew
// shrank the router root and failed a valid trace, and a negative -stages
// read as "accept any".
func TestRunRejectsNegativeFlags(t *testing.T) {
	ex, _ := requestSample()
	valid := writeFile(t, nil, 0, ex)
	missing := filepath.Join(t.TempDir(), "missing.json")
	for _, c := range []struct {
		stages int
		skew   time.Duration
		want   string
	}{
		{-3, 0, "-stages -3"},
		{0, -2 * time.Millisecond, "-skew -2ms"},
	} {
		for _, path := range []string{valid, missing} {
			err := run(path, c.stages, c.skew, io.Discard)
			if err == nil || !strings.HasPrefix(err.Error(), c.want) {
				t.Errorf("run(%s, %d, %v) = %v, want an error naming %s", filepath.Base(path), c.stages, c.skew, err, c.want)
			}
		}
	}
}

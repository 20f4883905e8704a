// Command gllm-tracecheck validates a Chrome trace-event JSON file and
// prints what it holds. It exits nonzero if the file is not a well-formed
// trace, which makes it usable as a round-trip smoke check in CI:
//
//	gllm-sim -rate 2 -window 5s -trace-out spans.json
//	gllm-tracecheck -stages 4 spans.json
//
// A file holds stage lanes (gllm-sim -trace-out), request lanes
// (gllm-cluster -trace-out, or a running cluster's /cluster/trace) or both
// (gllm-server -trace-out). Stage lanes print their bubble accounting;
// request lanes — router- and replica-side lifecycle spans, one lane per
// traced request — are checked for series overlap and router-root
// enclosure (up to -skew of cross-process clock drift) and summarized:
//
//	curl -s localhost:8000/cluster/trace > req.json
//	gllm-tracecheck req.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"gllm/internal/obs"
)

func main() {
	var (
		stages = flag.Int("stages", 0, "expected pipeline stage count (0 = accept any)")
		skew   = flag.Duration("skew", 50*time.Millisecond, "cross-process clock tolerance for request lanes")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gllm-tracecheck [-stages N] [-skew D] trace.json")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *stages, *skew, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gllm-tracecheck:", err)
		os.Exit(1)
	}
}

func run(path string, stages int, skew time.Duration, out io.Writer) error {
	if stages < 0 {
		return fmt.Errorf("-stages %d: want a stage count, or 0 to accept any", stages)
	}
	if skew < 0 {
		return fmt.Errorf("-skew %v: want a tolerance >= 0", skew)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec, err := obs.ReadChrome(f)
	if err != nil {
		return err
	}
	if stages > 0 && dec.Stages != stages {
		return fmt.Errorf("%s: decoded %d stages, expected %d", path, dec.Stages, stages)
	}
	if err := dec.Validate(skew); err != nil {
		return err
	}
	if len(dec.Spans) > 0 {
		// Account over the span extent: the trace file carries no makespan,
		// so the window is the earliest start to the latest end.
		fmt.Fprintf(out, "%s: %d spans across %d stages\n", path, len(dec.Spans), dec.Stages)
		fmt.Fprint(out, dec.Account(0).String())
	}
	if len(dec.Requests) > 0 {
		fmt.Fprintf(out, "%s: %s", path, dec.Summary())
	}
	return nil
}

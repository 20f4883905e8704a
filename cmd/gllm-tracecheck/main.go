// Command gllm-tracecheck validates a Chrome trace-event JSON file produced
// by gllm-sim/gllm-server -trace-out and prints its bubble accounting. It
// exits nonzero if the file is not a well-formed span trace, which makes it
// usable as a round-trip smoke check in CI:
//
//	gllm-sim -rate 2 -window 5s -trace-out spans.json
//	gllm-tracecheck -stages 4 spans.json
//
// With -requests it instead validates a merged request trace produced by
// gllm-cluster -trace-out (written on exit) or saved from a running
// cluster's /cluster/trace: per-request lanes holding router- and
// replica-side lifecycle spans, checked for lane integrity, series overlap,
// and router-root enclosure (up to -skew of cross-process clock drift):
//
//	curl -s localhost:8000/cluster/trace > req.json
//	gllm-tracecheck -requests req.json
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
		stages   = flag.Int("stages", 0, "expected pipeline stage count (0 = accept any)")
		requests = flag.Bool("requests", false, "validate a merged request trace (gllm-cluster -trace-out) instead of a stage trace")
		skew     = flag.Duration("skew", 50*time.Millisecond, "cross-process clock tolerance for -requests validation")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gllm-tracecheck [-stages N | -requests [-skew D]] trace.json")
		os.Exit(2)
	}
	run := runStages
	if *requests {
		run = func(path string, _ int, out io.Writer) error { return runRequests(path, *skew, out) }
	}
	if err := run(flag.Arg(0), *stages, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gllm-tracecheck:", err)
		os.Exit(1)
	}
}

func runStages(path string, stages int, out io.Writer) error {
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
	// Account over the span extent: the trace file carries no makespan, so
	// the window is the earliest start to the latest end.
	acc := dec.Account(0)
	fmt.Fprintf(out, "%s: %d spans across %d stages\n", path, len(dec.Spans), dec.Stages)
	fmt.Fprint(out, acc.String())
	return nil
}

func runRequests(path string, skew time.Duration, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec, err := obs.ReadChromeRequests(f)
	if err != nil {
		return err
	}
	if err := dec.Validate(skew); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: ", path)
	fmt.Fprint(out, dec.Summary())
	return nil
}

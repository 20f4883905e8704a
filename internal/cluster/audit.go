package cluster

import (
	"errors"
	"fmt"
	"sync"

	"gllm/internal/runtime"
)

// Audit extends the per-engine invariant harness (internal/invariant) to
// the cluster level: the checks below can only be stated *across*
// replicas, because the router may place any stream anywhere and drains
// move work off replicas mid-run.
//
// Consumers record every routed stream's outcome with StreamDone; Verify
// then asserts, against the replicas' own accounting:
//
//   - stream conservation: every submitted stream reached a terminal
//     state — completed, aborted, or rejected — and none was dropped;
//   - token conservation: a stream that finished with FinishLength
//     delivered exactly its requested output tokens, and the totals
//     delivered to consumers equal the totals the replicas report
//     having generated for completed requests;
//   - KV-leak freedom: after every replica has drained, each one's
//     allocatable blocks equal its total blocks (a leaked sequence would
//     hold references forever), and nothing remains resident or in
//     flight anywhere in the cluster.
type Audit struct {
	mu        sync.Mutex
	streams   int64
	completed int64
	aborted   int64
	rejected  int64
	delivered int64 // tokens streamed to consumers, all streams
	short     []string
}

// StreamDone records one terminal stream: how many real tokens (events
// with non-empty Text; synthetic abort terminators don't count) its
// consumer drained, how many it asked for, and how it finished.
func (a *Audit) StreamDone(id int64, delivered, want int, reason runtime.FinishReason) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.streams++
	a.delivered += int64(delivered)
	switch reason {
	case runtime.FinishLength:
		a.completed++
		if delivered != want {
			a.short = append(a.short,
				fmt.Sprintf("req %d: delivered %d of %d tokens", id, delivered, want))
		}
	case "":
		a.short = append(a.short, fmt.Sprintf("req %d: no terminal reason", id))
	default:
		a.aborted++
	}
}

// Verify checks the cluster invariants against the (drained) replicas.
// submitted is the number of submissions the traffic source attempted;
// reps should cover every replica that served the run, retired ones
// included.
func (a *Audit) Verify(submitted int64, reps []*Replica) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var errs []error
	if got := a.streams + a.rejected; got != submitted {
		errs = append(errs, fmt.Errorf(
			"dropped streams: %d submissions but %d terminal outcomes (%d streams + %d rejects)",
			submitted, got, a.streams, a.rejected))
	}
	for _, s := range a.short {
		errs = append(errs, errors.New("token conservation: "+s))
	}

	// Replica-side accounting must agree with what consumers saw.
	var finished, cancelled, outputTokens int64
	for _, rep := range reps {
		st := rep.Stats()
		finished += int64(st.Finished)
		cancelled += int64(st.Cancelled)
		if st.Resident != 0 || st.InFlight != 0 {
			errs = append(errs, fmt.Errorf(
				"replica %s: %d resident / %d in flight after drain", rep.ID, st.Resident, st.InFlight))
		}
		// After drain no sequence holds KV references, so every block is
		// either free-listed or cache-only — and FreeBlocks counts both.
		// Anything short of total is a leaked (still-referenced) block.
		if st.KVFreeBlocks != st.KVTotalBlocks {
			errs = append(errs, fmt.Errorf(
				"replica %s: KV leak: %d of %d blocks free after drain (%d prefix-cached)",
				rep.ID, st.KVFreeBlocks, st.KVTotalBlocks, st.KVCachedBlocks))
		}
		outputTokens += rep.Engine().Metrics().Scrape().CompletedOutputTokens
	}
	if finished != a.completed {
		errs = append(errs, fmt.Errorf(
			"stream conservation: replicas finished %d requests, consumers saw %d complete",
			finished, a.completed))
	}
	if cancelled != a.aborted {
		errs = append(errs, fmt.Errorf(
			"stream conservation: replicas aborted %d requests, consumers saw %d aborts",
			cancelled, a.aborted))
	}
	// Aborted streams may legitimately drain fewer tokens than the replica
	// generated (tokens produced after the consumer stopped). With no
	// aborts, the cluster-wide sums must match exactly.
	if a.aborted == 0 && a.delivered != outputTokens {
		errs = append(errs, fmt.Errorf(
			"token conservation: replicas generated %d output tokens for completed requests, consumers drained %d",
			outputTokens, a.delivered))
	}
	return errors.Join(errs...)
}

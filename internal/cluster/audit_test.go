package cluster

import (
	"strings"
	"testing"

	"gllm/internal/metrics"
	"gllm/internal/runtime"
)

// The audit gates every cluster smoke and the benchmark's cluster_chat
// correctness bit, so it has to be seen rejecting: each planted fault must
// surface as exactly the errors named for it, and the clean run as none.
func TestAuditDetectsPlantedFaults(t *testing.T) {
	const tokens = 5
	// world is a drained two-replica cluster that served three 5-token
	// streams (two on a, one on b); faults bend one side of the books.
	type world struct {
		streams   []runtime.FinishReason // one consumer-side outcome per stream
		delivered []int
		submitted int64
		snaps     [2]runtime.Snapshot
		records   [2][]metrics.Record
	}
	completed := metrics.Record{OutputTokens: tokens, FinishReason: "length"}
	drained := func(finished int) runtime.Snapshot {
		return runtime.Snapshot{Finished: finished, KVTotalBlocks: 64, KVFreeBlocks: 64,
			KVCachedBlocks: 8, Health: runtime.HealthStopped}
	}
	cases := []struct {
		name  string
		plant func(*world)
		want  []string // one substring per expected error
	}{
		{"clean", func(*world) {}, nil},
		{"submission without a terminal outcome", func(w *world) { w.submitted++ },
			[]string{"dropped streams: 4 submissions but 3 terminal outcomes"}},
		{"short delivery", func(w *world) { w.delivered[1]-- },
			[]string{"delivered 4 of 5 tokens", "consumers drained 14"}},
		{"stream without a terminal reason", func(w *world) { w.streams[2] = "" },
			[]string{"no terminal reason", "replicas finished 3 requests, consumers saw 2 complete"}},
		{"replica counted a token nobody drained", func(w *world) { w.records[0][1].OutputTokens++ },
			[]string{"replicas generated 16 output tokens for completed requests, consumers drained 15"}},
		{"KV blocks still referenced after drain", func(w *world) { w.snaps[1].KVFreeBlocks-- },
			[]string{"replica b: KV leak: 63 of 64 blocks free"}},
		{"request still resident after drain", func(w *world) { w.snaps[0].Resident = 1 },
			[]string{"replica a: 1 resident / 0 in flight after drain"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := world{
				streams:   []runtime.FinishReason{runtime.FinishLength, runtime.FinishLength, runtime.FinishLength},
				delivered: []int{tokens, tokens, tokens},
				submitted: 3,
				snaps:     [2]runtime.Snapshot{drained(2), drained(1)},
				records:   [2][]metrics.Record{{completed, completed}, {completed}},
			}
			tc.plant(&w)

			var audit Audit
			for i, reason := range w.streams {
				audit.StreamDone(int64(i), w.delivered[i], tokens, reason)
			}
			engines := []*fakeEngine{newFakeEngine(okPressure()), newFakeEngine(okPressure())}
			for i, eng := range engines {
				eng.snap = &w.snaps[i]
				for _, rec := range w.records[i] {
					eng.collector.Add(rec)
				}
			}
			err := audit.Verify(w.submitted, fakeReplicas(engines...))
			var got []error
			if err != nil {
				got = err.(interface{ Unwrap() []error }).Unwrap()
			}
			if len(got) != len(tc.want) {
				t.Fatalf("audit reported %d errors, want %d:\n%v", len(got), len(tc.want), err)
			}
			for i, want := range tc.want {
				if !strings.Contains(got[i].Error(), want) {
					t.Errorf("error %d = %q, want it to contain %q", i, got[i], want)
				}
			}
		})
	}
}

// RejectedSubmit records a submission the router terminally rejected
// (retry budget exhausted). The stream never existed, so it participates
// only in stream conservation.
func (a *Audit) RejectedSubmit() {
	a.mu.Lock()
	a.rejected++
	a.mu.Unlock()
}

// Streams returns (submitted, completed, aborted, rejected) so far.
func (a *Audit) Streams() (streams, completed, aborted, rejected int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.streams + a.rejected, a.completed, a.aborted, a.rejected
}

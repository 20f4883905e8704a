package sched

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"gllm/internal/request"
)

// legacyBatchLevel is BatchLevel before its walks relied on the cohort
// invariants: both walks go over their whole list and filter on the cohort
// stamp. It drops aborted members like BatchLevel does, so the two stay
// comparable under aborts. It is a test-side differential oracle, kept only
// while the prefix walk is new.
type legacyBatchLevel struct {
	maxSeqs int
	cohort  []*request.Request
	stamp   uint64
}

func (s *legacyBatchLevel) Name() string { return "batch-level" }

func (s *legacyBatchLevel) Schedule(p *Pool, now time.Duration) *Batch {
	s.cohort = slices.DeleteFunc(s.cohort, leftPool)
	if len(s.cohort) == 0 {
		s.stamp = batchEpoch.Add(1)
		for _, r := range p.prefillQ {
			if len(s.cohort) >= s.maxSeqs {
				break
			}
			r.SchedStamp = s.stamp
			s.cohort = append(s.cohort, r)
		}
	}
	inCohort := func(r *request.Request) bool { return r.SchedStamp == s.stamp }
	b := p.GetBatch()
	p.buildDecode(b, s.maxSeqs, inCohort)
	p.buildPrefill(b, p.prefillQ, 1<<30, now, inCohort, true)
	return b
}

// fuzzCorpus returns FuzzThrottleSchedule's committed corpus entries.
func fuzzCorpus(t *testing.T) [][]byte {
	t.Helper()
	files, err := filepath.Glob("testdata/fuzz/FuzzThrottleSchedule/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, val, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(val, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// TestBatchLevelMatchesLegacyOracle: walking only the cohort's queue prefix
// with no filter schedules exactly the batches the filtered whole-queue
// walks did — same chunks, tokens, context offsets and decodes, in order —
// over the fuzz corpus's shapes, a KV-pressure trace that preempts, and
// random aborts.
func TestBatchLevelMatchesLegacyOracle(t *testing.T) {
	trials := []trial{kvPressureTrial}
	for _, data := range fuzzCorpus(t) {
		if tr, ok := trialFromBytes(data); ok {
			trials = append(trials, tr)
		}
	}
	for seed := range uint64(300) {
		trials = append(trials, randomTrial(seed))
	}
	record := func(tr trial, s Scheduler, aborts *rand.Rand) ([]string, int, error) {
		var log []string
		p, err := tr.run(s, aborts, func(_ *Pool, b *Batch) {
			var sb strings.Builder
			for _, c := range b.Chunks {
				fmt.Fprintf(&sb, "c%d:%d@%d ", c.Req.ID, c.Tokens, c.CtxStart)
			}
			for _, r := range b.Decodes {
				fmt.Fprintf(&sb, "d%d ", r.ID)
			}
			log = append(log, sb.String())
		})
		return log, p.Preemptions(), err
	}
	preempted := 0
	for i, tr := range trials {
		for _, abort := range []bool{false, true} {
			for _, size := range []int{8, 64} {
				var ra, rb *rand.Rand
				if abort {
					ra, rb = rand.New(rand.NewPCG(uint64(i), 1)), rand.New(rand.NewPCG(uint64(i), 1))
				}
				got, pre, err := record(tr, NewBatchLevel(size), ra)
				want, _, werr := record(tr, &legacyBatchLevel{maxSeqs: size}, rb)
				if (err == nil) != (werr == nil) || !slices.Equal(got, want) {
					at := 0
					for at < min(len(got), len(want)) && got[at] == want[at] {
						at++
					}
					t.Fatalf("trial %d abort=%v size %d: diverges at batch %d of %d/%d (errors %v / %v)",
						i, abort, size, at, len(got), len(want), err, werr)
				}
				if pre > 0 {
					preempted++
				}
			}
		}
	}
	if preempted == 0 {
		t.Fatal("no trial preempted")
	}
}

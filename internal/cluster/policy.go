// Routing policies. A Policy chooses among the routable replicas the
// router snapshots per submission; policies must be safe for concurrent
// use. Tie-breaking is deterministic everywhere (lowest candidate index
// wins) so routing decisions are reproducible given the same pressure
// views — the property the table-driven tests pin down.
package cluster

import (
	"fmt"
	"sync"

	"gllm/internal/engine"
	"gllm/internal/runtime"
	"gllm/internal/stats"
)

// Policy picks the replica for one request. cands is non-empty and
// ordered by replica registration; Pick returns an index into it and must
// not modify it, since it may be the router's own replica list.
type Policy interface {
	Name() string
	Pick(req Request, cands []*Replica) int
}

// ByName builds a policy from its CLI name: "random", "round-robin",
// "least-kv", or "prefix" (prefix-affinity over least-KV fallback).
func ByName(name string, seed uint64) (Policy, error) {
	switch name {
	case "random":
		return NewRandom(seed), nil
	case "round-robin":
		return NewRoundRobin(), nil
	case "least-kv":
		return NewLeastKV(), nil
	case "prefix":
		return NewPrefixAffinity(nil), nil
	}
	return nil, fmt.Errorf("cluster: unknown policy %q (want random, round-robin, least-kv, prefix)", name)
}

// Random routes uniformly at random (seeded, so runs are reproducible).
type Random struct {
	mu  sync.Mutex
	rng *stats.RNG
}

// NewRandom builds a seeded random policy.
func NewRandom(seed uint64) *Random {
	return &Random{rng: stats.NewRNG(seed ^ 0x72616e646f6d)} // "random"
}

func (p *Random) Name() string { return "random" }

func (p *Random) Pick(_ Request, cands []*Replica) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.Intn(len(cands))
}

// RoundRobin cycles through the candidates.
type RoundRobin struct {
	mu   sync.Mutex
	next uint64
}

// NewRoundRobin builds a round-robin policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

func (p *RoundRobin) Name() string { return "round-robin" }

func (p *RoundRobin) Pick(_ Request, cands []*Replica) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx := int(p.next % uint64(len(cands)))
	p.next++
	return idx
}

// LeastKV routes to the replica with the most free KV cache — the
// paper's KV_free signal lifted to the cluster level. Ties break on
// fewest resident requests, then shortest submit queue, then lowest
// index, so the decision is total and deterministic.
type LeastKV struct{}

// NewLeastKV builds a least-KV-pressure policy.
func NewLeastKV() *LeastKV { return &LeastKV{} }

func (p *LeastKV) Name() string { return "least-kv" }

func (p *LeastKV) Pick(_ Request, cands []*Replica) int {
	best, bp := 0, cands[0].Pressure()
	for i := 1; i < len(cands); i++ {
		q := cands[i].Pressure()
		if better(q, bp) {
			best, bp = i, q
		}
	}
	return best
}

// better orders pressure views: more KV headroom first, then fewer
// resident requests, then a shorter queue. Strict: equal views are not
// better, so the earliest candidate wins ties.
func better(a, b runtime.Pressure) bool {
	if a.KVFree != b.KVFree {
		return a.KVFree > b.KVFree
	}
	if a.Resident != b.Resident {
		return a.Resident < b.Resident
	}
	return a.QueueLen < b.QueueLen
}

// PrefixAffinity routes conversation follow-ups to the replica holding
// the longest resident run of their shared prefix, read from each
// candidate's KV residency (MatchPrefix) at pick time, so the policy keeps
// no record of where a group went. The scan stops at the first candidate
// holding the whole block-rounded prefix; ties go to the lowest index.
// Everything else — no group, no shared prefix, no holder, or a saturated
// holder — goes to the fallback policy (least-KV by default).
type PrefixAffinity struct {
	fallback Policy
	// spillUsedKV: above this KV usage the holder is considered saturated
	// and the request spills to the fallback choice.
	spillUsedKV float64
}

// NewPrefixAffinity builds a prefix-affinity policy over a fallback
// (nil = least-KV) with the default 0.9 KV-usage spill threshold.
func NewPrefixAffinity(fallback Policy) *PrefixAffinity {
	if fallback == nil {
		fallback = NewLeastKV()
	}
	return &PrefixAffinity{fallback: fallback, spillUsedKV: 0.9}
}

func (p *PrefixAffinity) Name() string { return "prefix" }

func (p *PrefixAffinity) Pick(req Request, cands []*Replica) int {
	if req.PrefixGroup != 0 && req.SharedPrefixLen > 0 {
		full := req.SharedPrefixLen - req.SharedPrefixLen%engine.KVBlockSize
		best, run := -1, 0
		for i, r := range cands {
			if m := r.eng.MatchPrefix(req.PrefixGroup, req.SharedPrefixLen); m > run {
				best, run = i, m
				if m >= full {
					break
				}
			}
		}
		if best >= 0 && 1-cands[best].Pressure().KVFree <= p.spillUsedKV {
			return best
		}
	}
	return p.fallback.Pick(req, cands)
}

// Routing policies. A Policy chooses among the routable replicas the
// router snapshots per submission; policies must be safe for concurrent
// use. Tie-breaking is deterministic everywhere (lowest candidate index
// wins) so routing decisions are reproducible given the same pressure
// views — the property the table-driven tests pin down.
package cluster

import (
	"fmt"
	"sync"

	"gllm/internal/runtime"
	"gllm/internal/stats"
)

// Policy picks the replica for one request. cands is non-empty and
// ordered by replica registration; Pick returns an index into it.
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

// PrefixAffinity routes conversation follow-ups to the replica already
// holding their prefix blocks: a sticky group→replica assignment,
// validated against the replica's actual KV residency (MatchPrefix) and
// its saturation. Cold starts — first turns, requests without a group,
// or follow-ups whose cached prefix was evicted — fall through to the
// fallback policy (least-KV by default), which also picks the new home
// when the sticky replica is saturated or gone (drained/replaced).
type PrefixAffinity struct {
	fallback Policy
	// spillUsedKV: above this KV usage the sticky replica is considered
	// saturated and the request spills to the fallback choice.
	spillUsedKV float64

	mu     sync.Mutex
	assign map[int64]string // prefix group -> replica ID
}

// NewPrefixAffinity builds a prefix-affinity policy over a fallback
// (nil = least-KV) with the default 0.9 KV-usage spill threshold.
func NewPrefixAffinity(fallback Policy) *PrefixAffinity {
	if fallback == nil {
		fallback = NewLeastKV()
	}
	return &PrefixAffinity{
		fallback:    fallback,
		spillUsedKV: 0.9,
		assign:      make(map[int64]string),
	}
}

func (p *PrefixAffinity) Name() string { return "prefix" }

func (p *PrefixAffinity) Pick(req Request, cands []*Replica) int {
	if req.PrefixGroup == 0 {
		return p.fallback.Pick(req, cands)
	}
	p.mu.Lock()
	home, ok := p.assign[req.PrefixGroup]
	p.mu.Unlock()
	if ok {
		for i, r := range cands {
			if r.ID != home {
				continue
			}
			if 1-r.Pressure().KVFree > p.spillUsedKV {
				break // sticky replica saturated: spill
			}
			if req.SharedPrefixLen > 0 &&
				r.eng.MatchPrefix(req.PrefixGroup, req.SharedPrefixLen) == 0 {
				break // prefix evicted: any replica is as good, re-place
			}
			return i
		}
	}
	// Cold start, saturated home, or home gone: place (or re-place) the
	// group wherever the fallback routes it.
	idx := p.fallback.Pick(req, cands)
	p.mu.Lock()
	p.assign[req.PrefixGroup] = cands[idx].ID
	p.mu.Unlock()
	return idx
}

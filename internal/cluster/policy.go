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

	// The sticky assignment, prefix group -> replica ID, in two
	// generations: assign takes every placement, and when it holds
	// assignGen groups it becomes prev and the old prev is cleared for
	// reuse. A hit in prev moves the group forward.
	mu     sync.Mutex
	assign map[int64]string
	prev   map[int64]string
}

// assignGen bounds each generation of PrefixAffinity's assignment, which a
// trace of ever-new conversations would otherwise grow for as long as the
// router lives. Forgetting a group costs nothing once no replica holds its
// prefix — a follow-up then re-places it anyway — and a resident prefix
// takes at least one 16-token KV block: the 65 536 most recently routed
// groups the two generations always keep outnumber the blocks of three
// Qwen2.5-14B replicas on 2×L20 (21 091 each).
const assignGen = 1 << 16

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
		prev:        make(map[int64]string),
	}
}

func (p *PrefixAffinity) Name() string { return "prefix" }

func (p *PrefixAffinity) Pick(req Request, cands []*Replica) int {
	if req.PrefixGroup == 0 {
		return p.fallback.Pick(req, cands)
	}
	if home, ok := p.home(req.PrefixGroup); ok {
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
	p.place(req.PrefixGroup, cands[idx].ID)
	p.mu.Unlock()
	return idx
}

// home returns the replica a group was last placed on.
func (p *PrefixAffinity) home(group int64) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id, ok := p.assign[group]
	if !ok {
		if id, ok = p.prev[group]; ok {
			p.place(group, id)
		}
	}
	return id, ok
}

// place records a group's home in the current generation, rotating the
// generations first when it is full. p.mu must be held.
func (p *PrefixAffinity) place(group int64, id string) {
	if len(p.assign) >= assignGen {
		clear(p.prev)
		p.assign, p.prev = p.prev, p.assign
	}
	p.assign[group] = id
}

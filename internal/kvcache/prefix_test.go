package kvcache

import (
	"testing"
	"testing/quick"

	"gllm/internal/stats"
)

func TestPrefixMatchEmptyCache(t *testing.T) {
	m := New(64*16, 16)
	if got := m.MatchPrefix(7, 100); got != 0 {
		t.Fatalf("match on empty cache = %d", got)
	}
	if got := m.MatchPrefix(0, 100); got != 0 {
		t.Fatalf("group 0 must never match, got %d", got)
	}
}

func TestPrefixRegisterAndAttach(t *testing.T) {
	m := New(64*16, 16)
	// Seq 1 computes a 50-token prompt whose first 40 tokens are shared
	// content of group 9.
	if err := m.Allocate(1, 50); err != nil {
		t.Fatal(err)
	}
	m.RegisterPrefix(1, 9, 40)
	// Only FULL blocks register: 40/16 = 2 blocks = 32 tokens.
	if got := m.MatchPrefix(9, 40); got != 32 {
		t.Fatalf("match = %d, want 32", got)
	}
	if m.CachedBlocks() != 2 {
		t.Fatalf("cached = %d", m.CachedBlocks())
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}

	// Seq 2 shares the prefix: attaching reuses blocks without allocation.
	freeBefore := m.FreeBlocks()
	got := m.AttachPrefix(2, 9, 40)
	if got != 32 {
		t.Fatalf("attached = %d, want 32", got)
	}
	if m.TokensOf(2) != 32 {
		t.Fatalf("seq2 tokens = %d", m.TokensOf(2))
	}
	if m.FreeBlocks() != freeBefore {
		t.Fatal("attach consumed free blocks")
	}
	// Shared page table: seq 2's first two blocks == seq 1's.
	p1, p2 := m.seqs[1].blocks, m.seqs[2].blocks
	if p1[0] != p2[0] || p1[1] != p2[1] {
		t.Fatalf("tables not shared: %v vs %v", p1[:2], p2)
	}
	hits, hitToks := m.PrefixHits()
	if hits != 1 || hitToks != 32 {
		t.Fatalf("hits = %d/%d", hits, hitToks)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixSharedBlockSurvivesOwnerFree(t *testing.T) {
	m := New(64*16, 16)
	if err := m.Allocate(1, 32); err != nil {
		t.Fatal(err)
	}
	m.RegisterPrefix(1, 5, 32)
	m.AttachPrefix(2, 5, 32)
	m.Free(1) // original owner leaves; seq 2 + cache still reference
	if m.TokensOf(2) != 32 {
		t.Fatal("seq2 lost tokens")
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	m.Free(2) // only the cache references now
	if m.MatchPrefix(5, 32) != 32 {
		t.Fatal("cache entry lost after frees")
	}
	// The blocks are evictable, so they count as free capacity.
	if m.FreeBlocks() != 64 {
		t.Fatalf("free = %d, want 64 (cache-only blocks are evictable)", m.FreeBlocks())
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixEvictionUnderPressure(t *testing.T) {
	m := New(4*16, 16)
	if err := m.Allocate(1, 32); err != nil {
		t.Fatal(err)
	}
	m.RegisterPrefix(1, 3, 32)
	m.Free(1) // 2 cache-only blocks + 2 free blocks
	// Demand all 4 blocks: the cache must be evicted to satisfy it.
	if !m.CanAllocate(2, 64) {
		t.Fatal("evictable blocks not counted as allocatable")
	}
	if err := m.Allocate(2, 64); err != nil {
		t.Fatal(err)
	}
	if m.Evictions() != 2 {
		t.Fatalf("evictions = %d", m.Evictions())
	}
	if m.MatchPrefix(3, 32) != 0 {
		t.Fatal("evicted prefix still matches")
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixPartialEviction(t *testing.T) {
	m := New(4*16, 16)
	if err := m.Allocate(1, 32); err != nil {
		t.Fatal(err)
	}
	m.RegisterPrefix(1, 3, 32)
	m.Free(1)
	// Take just one more block than the free list holds.
	if err := m.Allocate(2, 48); err != nil {
		t.Fatal(err)
	}
	if m.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", m.Evictions())
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestAttachPrefixToNonFreshPanics(t *testing.T) {
	m := New(64*16, 16)
	if err := m.Allocate(1, 16); err != nil {
		t.Fatal(err)
	}
	m.RegisterPrefix(1, 2, 16)
	if err := m.Allocate(2, 5); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.AttachPrefix(2, 2, 16)
}

func TestRegisterPrefixIdempotent(t *testing.T) {
	m := New(64*16, 16)
	if err := m.Allocate(1, 32); err != nil {
		t.Fatal(err)
	}
	m.RegisterPrefix(1, 4, 32)
	m.RegisterPrefix(1, 4, 32)
	if m.CachedBlocks() != 2 {
		t.Fatalf("cached = %d after double register", m.CachedBlocks())
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterPrefixGroupZeroNoop(t *testing.T) {
	m := New(64*16, 16)
	if err := m.Allocate(1, 32); err != nil {
		t.Fatal(err)
	}
	m.RegisterPrefix(1, 0, 32)
	if m.CachedBlocks() != 0 {
		t.Fatal("group 0 registered")
	}
}

func TestAttachGrowThenFree(t *testing.T) {
	m := New(64*16, 16)
	if err := m.Allocate(1, 64); err != nil {
		t.Fatal(err)
	}
	m.RegisterPrefix(1, 8, 64)
	got := m.AttachPrefix(2, 8, 64)
	if got != 64 {
		t.Fatalf("attached = %d", got)
	}
	// Seq 2 extends past the shared prefix with its own blocks.
	if err := m.Allocate(2, 30); err != nil {
		t.Fatal(err)
	}
	if m.TokensOf(2) != 94 {
		t.Fatalf("tokens = %d", m.TokensOf(2))
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	m.Free(2)
	m.Free(1)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	// Cache entries survive; everything is still allocatable.
	if m.FreeBlocks() != 64 {
		t.Fatalf("free = %d", m.FreeBlocks())
	}
}

func TestQuickPrefixWorkloadInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := New(96*16, 16)
		live := map[SeqID]int64{} // seq -> group
		nextID := SeqID(1)
		for op := 0; op < 250; op++ {
			switch {
			case rng.Float64() < 0.45: // admit with possible prefix reuse
				id := nextID
				nextID++
				group := int64(rng.IntRange(1, 4))
				want := rng.IntRange(1, 120)
				attached := m.AttachPrefix(id, group, want)
				rest := want - attached
				if rest > 0 && m.CanAllocate(id, rest) {
					if err := m.Allocate(id, rest); err != nil {
						return false
					}
				}
				if m.TokensOf(id) > 0 {
					m.RegisterPrefix(id, group, m.TokensOf(id))
					live[id] = group
				} else {
					m.Free(id)
				}
			case len(live) > 0 && rng.Float64() < 0.6: // grow one
				for id := range live {
					if m.CanAllocate(id, 7) {
						if err := m.Allocate(id, 7); err != nil {
							return false
						}
					}
					break
				}
			case len(live) > 0: // free one
				for id := range live {
					m.Free(id)
					delete(live, id)
					break
				}
			}
			if err := m.Verify(); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

package kvcache

import (
	"slices"
	"testing"
	"testing/quick"

	"gllm/internal/stats"
)

func TestNewBlockAccounting(t *testing.T) {
	m := New(1000, 16)
	if m.TotalBlocks() != 62 {
		t.Fatalf("TotalBlocks = %d, want 62", m.TotalBlocks())
	}
	if m.FreeBlocks() != 62 || m.UsedBlocks() != 0 {
		t.Fatalf("free/used = %d/%d", m.FreeBlocks(), m.UsedBlocks())
	}
	if m.CapacityTokens() != 992 {
		t.Fatalf("capacity = %d", m.CapacityTokens())
	}
	if m.FreeRate() != 1 {
		t.Fatalf("free rate = %v", m.FreeRate())
	}
}

func TestNewPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(100, 0) },
		func() { New(100, -4) },
		func() { New(7, 16) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAllocateAndFree(t *testing.T) {
	m := New(64*16, 16)
	if err := m.Allocate(1, 20); err != nil {
		t.Fatal(err)
	}
	if m.TokensOf(1) != 20 {
		t.Fatalf("tokens = %d", m.TokensOf(1))
	}
	if m.UsedBlocks() != 2 {
		t.Fatalf("used = %d, want 2 (20 tokens @16)", m.UsedBlocks())
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	m.Free(1)
	if m.Has(1) || m.UsedBlocks() != 0 {
		t.Fatal("free did not release")
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalAllocationUsesSlack(t *testing.T) {
	m := New(64*16, 16)
	if err := m.Allocate(1, 10); err != nil {
		t.Fatal(err)
	}
	// 6 slots left in the trailing block: no new block needed.
	if got := m.BlocksNeeded(1, 6); got != 0 {
		t.Fatalf("BlocksNeeded = %d", got)
	}
	if err := m.Allocate(1, 6); err != nil {
		t.Fatal(err)
	}
	if m.UsedBlocks() != 1 {
		t.Fatalf("used = %d", m.UsedBlocks())
	}
	// One more token spills into a second block.
	if err := m.Allocate(1, 1); err != nil {
		t.Fatal(err)
	}
	if m.UsedBlocks() != 2 {
		t.Fatalf("used = %d", m.UsedBlocks())
	}
}

func TestAllocateFailsAtomically(t *testing.T) {
	m := New(4*16, 16)
	if err := m.Allocate(1, 3*16); err != nil {
		t.Fatal(err)
	}
	before := m.FreeBlocks()
	if err := m.Allocate(2, 2*16); err == nil {
		t.Fatal("over-allocation succeeded")
	}
	if m.FreeBlocks() != before {
		t.Fatal("failed allocation leaked blocks")
	}
	if m.Has(2) {
		t.Fatal("failed allocation created sequence")
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestCanAllocate(t *testing.T) {
	m := New(2*16, 16)
	if !m.CanAllocate(1, 32) {
		t.Fatal("should fit exactly")
	}
	if m.CanAllocate(1, 33) {
		t.Fatal("should not fit")
	}
}

func TestFreeRateMovesWithUsage(t *testing.T) {
	m := New(10*16, 16)
	if err := m.Allocate(1, 5*16); err != nil {
		t.Fatal(err)
	}
	if got := m.FreeRate(); got != 0.5 {
		t.Fatalf("free rate = %v", got)
	}
	if got := m.UsedBlocks(); got != 5 {
		t.Fatalf("used blocks = %d", got)
	}
}

func TestFreeUnknownSeqNoop(t *testing.T) {
	m := New(16, 16)
	m.Free(99) // must not panic
	if m.FreeBlocks() != 1 || m.Verify() != nil {
		t.Fatal("noop free disturbed the cache")
	}
}

func TestAllocateLowBlockIDsFirst(t *testing.T) {
	m := New(8*16, 16)
	if err := m.Allocate(1, 48); err != nil {
		t.Fatal(err)
	}
	if pt := m.seqs[1].blocks; !slices.Equal(pt, []int{0, 1, 2}) {
		t.Fatalf("page table = %v", pt)
	}
}

func TestBlockReuseAfterFree(t *testing.T) {
	m := New(2*16, 16)
	if err := m.Allocate(1, 32); err != nil {
		t.Fatal(err)
	}
	m.Free(1)
	if err := m.Allocate(2, 32); err != nil {
		t.Fatalf("blocks not reusable: %v", err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSequencesSorted(t *testing.T) {
	m := New(10*16, 16)
	for _, id := range []SeqID{5, 1, 3} {
		if err := m.Allocate(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	got := m.Sequences()
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("Sequences = %v", got)
	}
}

func TestBlocksNeededNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(16, 16).BlocksNeeded(1, -1)
}

func TestZeroTokenAllocateCreatesEmptySeq(t *testing.T) {
	m := New(16, 16)
	if err := m.Allocate(1, 0); err != nil {
		t.Fatal(err)
	}
	if !m.Has(1) || m.TokensOf(1) != 0 || m.UsedBlocks() != 0 {
		t.Fatal("zero allocation mishandled")
	}
}

// TestQuickRandomWorkloadInvariants drives random allocate/free traffic and
// checks the manager's invariants after every operation.
func TestQuickRandomWorkloadInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := New(128*16, 16)
		live := map[SeqID]bool{}
		nextID := SeqID(1)
		for op := 0; op < 300; op++ {
			if rng.Float64() < 0.6 {
				id := nextID
				if rng.Float64() < 0.5 && len(live) > 0 {
					// extend an existing sequence
					for l := range live {
						id = l
						break
					}
				} else {
					nextID++
				}
				extra := rng.IntRange(1, 100)
				if m.CanAllocate(id, extra) {
					if err := m.Allocate(id, extra); err != nil {
						return false
					}
					live[id] = true
				} else if err := m.Allocate(id, extra); err == nil {
					return false // CanAllocate said no but Allocate succeeded
				}
			} else if len(live) > 0 {
				for id := range live {
					m.Free(id)
					delete(live, id)
					break
				}
			}
			if err := m.Verify(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// A prefix cache that has grown to cover the whole pool must still read as
// allocatable capacity: FreeRate counts cache-only (evictable) blocks as
// free, exactly like FreeBlocks. The old strict-free-list definition made a
// saturated cache look like KV exhaustion, so the token throttle suspended
// prefill against blocks Allocate would happily have evicted — a permanent
// stall on an idle pipeline (surfaced by the day-scale cluster benchmark).
func TestFreeRateCountsEvictableCacheAsFree(t *testing.T) {
	m := New(1024, 16) // 64 blocks
	total := m.TotalBlocks()
	// Fill the entire pool with one group's cached prefix, then drop the
	// only sequence reference: every block becomes cache-only.
	if err := m.Allocate(1, total*16); err != nil {
		t.Fatal(err)
	}
	m.RegisterPrefix(1, 7, total*16)
	m.Free(1)
	if m.CachedBlocks() != total {
		t.Fatalf("cached = %d, want %d", m.CachedBlocks(), total)
	}
	if got := m.FreeRate(); got != 1 {
		t.Fatalf("FreeRate = %v with a fully evictable cache, want 1", got)
	}
	if got := m.UsedBlocks(); got != 0 {
		t.Fatalf("UsedBlocks = %d, want 0", got)
	}
	// A live sequence's blocks are genuinely used; the cache remainder is not.
	if err := m.Allocate(2, 16*16); err != nil {
		t.Fatal(err)
	}
	want := float64(total-16) / float64(total)
	if got := m.FreeRate(); got != want {
		t.Fatalf("FreeRate = %v after 16-block alloc, want %v", got, want)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// The lazy evict heap must reproduce the full-scan eviction order exactly:
// always the smallest currently-evictable block id, across interleaved
// attach (re-reference), free (re-queue), and eviction.
func TestEvictHeapMatchesAscendingOrder(t *testing.T) {
	m := New(64*16, 16) // 64 blocks
	// Three cached single-block groups, then drop the owning sequences.
	for id := SeqID(1); id <= 3; id++ {
		if err := m.Allocate(id, 16); err != nil {
			t.Fatal(err)
		}
		m.RegisterPrefix(id, int64(id), 16)
	}
	m.Free(1)
	m.Free(2)
	m.Free(3) // blocks 0,1,2 evictable (ascending ids by LIFO alloc order)

	// Re-reference group 2's block: it must be skipped, not evicted.
	if got := m.AttachPrefix(10, 2, 16); got != 16 {
		t.Fatalf("attach = %d", got)
	}
	if !m.evictOne() || !m.evictOne() {
		t.Fatal("two evictable blocks expected")
	}
	if m.evictOne() {
		t.Fatal("group 2's block is referenced; nothing further to evict")
	}
	if m.CachedBlocks() != 1 || m.MatchPrefix(2, 16) != 16 {
		t.Fatalf("cached = %d, match(2) = %d", m.CachedBlocks(), m.MatchPrefix(2, 16))
	}
	// Release group 2 again: it must be re-queued and evictable once more.
	m.Free(10)
	if !m.evictOne() {
		t.Fatal("re-released block must be evictable again")
	}
	if m.CachedBlocks() != 0 || m.FreeBlocks() != m.TotalBlocks() {
		t.Fatalf("cache not empty: %d cached, %d free", m.CachedBlocks(), m.FreeBlocks())
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// evictableBlocks returns cached blocks whose only reference is the cache
// itself, in ascending block id order — the full scan evictOne's lazy heap
// replaces.
func (m *Manager) evictableBlocks() []int {
	var out []int
	for b, key := range m.cachedAt {
		if key.group != 0 && m.refs[b] == 1 {
			out = append(out, b)
		}
	}
	return out
}

// Eviction order equivalence under random load: interleave allocs, prefix
// registration, attaches and frees, and after every operation compare
// evictOne's choice against the full evictableBlocks scan.
func TestEvictHeapEquivalenceRandom(t *testing.T) {
	r := stats.NewRNG(42)
	m := New(32*16, 16)
	live := map[SeqID]bool{}
	next := SeqID(1)
	for step := 0; step < 2000; step++ {
		switch r.Intn(4) {
		case 0: // start a cached conversation turn
			id := next
			next++
			if m.CanAllocate(id, 32) {
				if err := m.Allocate(id, 32); err != nil {
					t.Fatal(err)
				}
				m.RegisterPrefix(id, int64(1+r.Intn(8)), 32)
				live[id] = true
			}
		case 1: // attach to a cached prefix
			id := next
			next++
			if m.AttachPrefix(id, int64(1+r.Intn(8)), 32) > 0 {
				live[id] = true
			}
		case 2: // finish a random live sequence
			for id := range live {
				m.Free(id)
				delete(live, id)
				break
			}
		case 3: // force an eviction and check it picked the minimum
			want := m.evictableBlocks()
			got := m.evictOne()
			if got != (len(want) > 0) {
				t.Fatalf("step %d: evictOne = %v with %d evictable", step, got, len(want))
			}
			if got && m.refs[want[0]] != 0 {
				t.Fatalf("step %d: evicted wrong block (want %d first)", step, want[0])
			}
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// A Handle is a hint, never an authority: each way one can go stale, the
// append must land in the struct seqs[id] names — in the manager it was
// called on — and nowhere else.
func TestStaleHandleNeverMisdirects(t *testing.T) {
	const bs = 16
	m, other := New(64*bs, bs), New(64*bs, bs)
	mustAppend := func(m *Manager, h *Handle, id SeqID, n int) {
		t.Helper()
		if !m.TryAppend(h, id, n) {
			t.Fatalf("TryAppend(%d,%d) failed", id, n)
		}
		if h.s != m.seqs[id] {
			t.Fatalf("handle of %d not left on seqs[%d]", id, id)
		}
		if err := m.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	tokens := func(m *Manager, want map[SeqID]int) {
		t.Helper()
		for id, n := range want {
			if got := m.TokensOf(id); got != n {
				t.Fatalf("TokensOf(%d) = %d, want %d", id, got, n)
			}
		}
	}

	// The struct recycled under another ID.
	var h3 Handle
	mustAppend(m, &h3, 3, 10)
	held := h3.s
	m.Free(3)
	if held.owner != nil {
		t.Fatal("a freed struct still names its manager")
	}
	if err := m.Allocate(5, 20); err != nil {
		t.Fatal(err)
	}
	if m.seqs[5] != held {
		t.Fatal("setup: seq 5 did not reuse the recycled struct")
	}
	mustAppend(m, &h3, 3, 7) // h3 names seq 5's struct now
	tokens(m, map[SeqID]int{3: 7, 5: 20})

	// The ID resident again in another struct (preempt-and-recompute).
	h3.s = held // as left behind by the first residency
	mustAppend(m, &h3, 3, 1)
	tokens(m, map[SeqID]int{3: 8, 5: 20})

	// The same ID resident in two managers (a disaggregated hand-off).
	if err := other.Allocate(3, 100); err != nil {
		t.Fatal(err)
	}
	mustAppend(other, &h3, 3, 1) // h3 names m's struct
	tokens(m, map[SeqID]int{3: 8})
	tokens(other, map[SeqID]int{3: 101})
	mustAppend(m, &h3, 3, 1) // and now other's
	tokens(m, map[SeqID]int{3: 9})
	tokens(other, map[SeqID]int{3: 101})

	// A struct the recycler dropped, reached only through the handle.
	var hs [2 * maxRecycledSeqs]Handle
	for i := range hs {
		mustAppend(m, &hs[i], SeqID(100+i), 1)
	}
	for i := range hs {
		m.Free(SeqID(100 + i))
	}
	for i := range hs {
		if hs[i].s.owner != nil {
			t.Fatalf("freed struct %d still names its manager", i)
		}
	}
	last := len(hs) - 1
	dropped := hs[last].s // freed after the recycle list filled
	mustAppend(m, &hs[last], SeqID(100+last), 3)
	if dropped.tokens != 1 || hs[last].s == dropped {
		t.Fatalf("append reached the dropped struct (tokens %d)", dropped.tokens)
	}
}

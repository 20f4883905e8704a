// Package kvcache implements a vLLM-style paged KV cache manager: device
// memory is carved into fixed-size blocks of token slots, sequences own
// ordered block lists (page tables), and the scheduler consults the free
// rate (KV_free in the gLLM paper) to throttle prefill admission. Page
// tables are shared across pipeline stages, so a single manager accounts
// for the whole replica, exactly as the paper's driver worker does.
//
// The driver calls into the manager several times per token, so every
// operation does one map lookup per call — never one per block: a
// sequence's token count, page table and prefix-registration watermark
// live in one struct behind map[SeqID]*seq, and the prefix cache is one
// slice per group plus a dense per-block reverse index (see prefix.go).
// The per-decode-token append does none: TryAppend reaches the struct
// through a Handle the caller keeps beside its sequence.
package kvcache

import (
	"fmt"
	"slices"
)

// SeqID identifies a sequence in the cache.
type SeqID int64

// seq is one resident sequence. owner and id say where: s is m.seqs[id]
// exactly when s.owner == m && s.id == id — newSeq sets both, Free clears
// owner before the struct is recycled or dropped — which is what lets a
// Handle be validated without touching the map.
type seq struct {
	owner  *Manager
	id     SeqID
	tokens int
	blocks []int // ordered block IDs (the page table)

	// Prefix-registration watermark (see RegisterPrefix): the leading
	// registered blocks are already published under regGroup as this
	// sequence's own blocks, so later registrations skip them.
	regGroup   int64
	registered int
}

// maxRecycledSeqs bounds the seq structs (and their page-table capacity)
// kept for reuse. Steady-state serving frees and admits in alternation, so
// a short list already makes Allocate/Free allocation-free (16 and 64 gave
// the same allocations per request with 2 048 residents); an unbounded one
// would pin the page tables of the largest burst for as long as the
// manager lives.
const maxRecycledSeqs = 16

// Manager allocates KV-cache blocks to sequences. It is not safe for
// concurrent use; in the simulated engines it lives on the driver and in
// the concurrent runtime it is owned by the driver goroutine.
type Manager struct {
	blockSize   int
	totalBlocks int
	freeList    []int          // LIFO free block IDs
	seqs        map[SeqID]*seq // resident sequences
	recycled    []*seq         // freed structs awaiting reuse (≤ maxRecycledSeqs)

	// Prefix-cache state (allocated by initPrefix; see prefix.go).
	refs      []int            // per-block reference count (0 = free)
	chains    map[int64]*chain // group -> cached blocks by index
	cachedAt  []blockKey       // per-block reverse index (group 0 = not cached)
	cached    int              // blocks registered in the cache
	cacheOnly int              // cached blocks with no sequence reference (evictable)
	hits      int
	hitTokens int64
	evictions int

	// lruPrev/lruNext link the cache-only blocks, and no others, into one
	// circular list through the sentinel index totalBlocks, in eviction
	// order (see prefix.go): evictOne takes the head, lruNext[totalBlocks],
	// in O(1), and AttachPrefix unlinks a block it re-references.
	lruPrev, lruNext []int32

	onRun func(group int64, tokens int) // see OnPrefixRun
}

// New builds a manager holding capacityTokens token slots grouped into
// blocks of blockSize tokens. Partial trailing capacity is discarded
// (block-granular, like vLLM). It panics when blockSize <= 0 or the
// capacity holds no complete block.
func New(capacityTokens int64, blockSize int) *Manager {
	if blockSize <= 0 {
		panic(fmt.Sprintf("kvcache: blockSize = %d", blockSize))
	}
	nblocks := int(capacityTokens / int64(blockSize))
	if nblocks <= 0 {
		panic(fmt.Sprintf("kvcache: capacity %d tokens holds no block of %d", capacityTokens, blockSize))
	}
	m := &Manager{
		blockSize:   blockSize,
		totalBlocks: nblocks,
		freeList:    make([]int, nblocks),
		seqs:        make(map[SeqID]*seq),
	}
	// Hand out low block IDs first for deterministic page tables.
	for i := range m.freeList {
		m.freeList[i] = nblocks - 1 - i
	}
	return m
}

// BlockSize returns tokens per block.
func (m *Manager) BlockSize() int { return m.blockSize }

// TotalBlocks returns the total block count.
func (m *Manager) TotalBlocks() int { return m.totalBlocks }

// FreeBlocks returns the allocatable block count: free-list blocks plus
// cached blocks no sequence references (those are evicted on demand, so
// prefix-cache residency never shrinks the capacity schedulers see).
func (m *Manager) FreeBlocks() int { return len(m.freeList) + m.cacheOnly }

// UsedBlocks returns totalBlocks - FreeBlocks().
func (m *Manager) UsedBlocks() int { return m.totalBlocks - m.FreeBlocks() }

// CapacityTokens returns the total token slots managed.
func (m *Manager) CapacityTokens() int64 {
	return int64(m.totalBlocks) * int64(m.blockSize)
}

// FreeRate returns the fraction of blocks currently allocatable — the
// paper's KV_free ∈ [0,1]. Like FreeBlocks, it counts evictable
// cache-only blocks as free: Allocate evicts them on demand, so a
// prefix cache that has grown to span the whole pool must not read as
// exhaustion (the token throttle would otherwise suspend prefill
// against a cache it could evict, stalling an idle pipeline forever).
func (m *Manager) FreeRate() float64 {
	return float64(m.FreeBlocks()) / float64(m.totalBlocks)
}

// Has reports whether the sequence owns cache blocks.
func (m *Manager) Has(id SeqID) bool { return m.seqs[id] != nil }

// TokensOf returns the number of cached tokens of a sequence (0 if absent).
func (m *Manager) TokensOf(id SeqID) int {
	if s := m.seqs[id]; s != nil {
		return s.tokens
	}
	return 0
}

// Sequences returns the resident sequence IDs in ascending order.
func (m *Manager) Sequences() []SeqID {
	out := make([]SeqID, 0, len(m.seqs))
	for id := range m.seqs {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// blocksFor returns the blocks needed to hold n tokens.
func (m *Manager) blocksFor(n int) int {
	return (n + m.blockSize - 1) / m.blockSize
}

// BlocksNeeded returns how many new blocks appending extra tokens to the
// sequence would require (0 if the trailing block has room).
func (m *Manager) BlocksNeeded(id SeqID, extra int) int {
	return m.blocksNeeded(m.seqs[id], extra)
}

func (m *Manager) blocksNeeded(s *seq, extra int) int {
	if extra < 0 {
		panic(fmt.Sprintf("kvcache: negative token count %d", extra))
	}
	if s == nil {
		return m.blocksFor(extra)
	}
	// A page table always holds exactly blocksFor(tokens) blocks.
	return m.blocksFor(s.tokens+extra) - len(s.blocks)
}

// CanAllocate reports whether appending extra tokens to the sequence would
// succeed right now (counting evictable cached blocks as free).
func (m *Manager) CanAllocate(id SeqID, extra int) bool {
	return m.BlocksNeeded(id, extra) <= m.FreeBlocks()
}

// Allocate appends extra token slots to the sequence, claiming blocks from
// the free list. It fails atomically (no blocks claimed) when the cache
// cannot hold them. Allocating zero tokens for an unknown sequence creates
// an empty page table.
func (m *Manager) Allocate(id SeqID, extra int) error {
	if !m.TryAllocate(id, extra) {
		return fmt.Errorf("kvcache: need %d blocks for seq %d, only %d free",
			m.BlocksNeeded(id, extra), id, m.FreeBlocks())
	}
	return nil
}

// TryAllocate is Allocate reporting success as a bool, for callers to whom
// "no room" is an expected answer and must not format an error.
func (m *Manager) TryAllocate(id SeqID, extra int) bool {
	return m.tryAllocate(m.seqs[id], id, extra) != nil
}

// Handle remembers which struct holds a sequence, so TryAppend can skip the
// seqs[id] lookup. The zero Handle knows nothing. A Handle can go stale —
// its sequence freed, the struct recycled under another ID, the ID made
// resident again in another struct or another Manager — and still never
// misdirects an append: TryAppend uses it only while it names this
// manager's resident struct for that ID (see seq), and looks the ID up
// otherwise. Clearing one when its sequence is freed only stops it from
// keeping a dropped struct's page table alive.
type Handle struct{ s *seq }

// TryAppend is TryAllocate for the per-token decode path: it reaches the
// sequence through h when h is current, by ID when it is not, and leaves h
// naming the sequence on success. Appending into a trailing block with room
// costs two compares and an add.
func (m *Manager) TryAppend(h *Handle, id SeqID, extra int) bool {
	s := h.s
	if s == nil || s.owner != m || s.id != id {
		s = m.seqs[id]
	}
	if s = m.tryAllocate(s, id, extra); s == nil {
		return false
	}
	h.s = s
	return true
}

// tryAllocate appends extra token slots to id's sequence, s (nil when id is
// not resident), and returns the sequence — nil, with nothing claimed, when
// the cache cannot hold them.
func (m *Manager) tryAllocate(s *seq, id SeqID, extra int) *seq {
	if s != nil && extra >= 0 && s.tokens+extra <= len(s.blocks)*m.blockSize {
		s.tokens += extra // the trailing block has room
		return s
	}
	need := m.blocksNeeded(s, extra)
	if need > m.FreeBlocks() {
		return nil
	}
	if s == nil {
		s = m.newSeq(id)
	}
	for i := 0; i < need; i++ {
		if len(m.freeList) == 0 && !m.evictOne() {
			panic("kvcache: free accounting out of sync") // FreeBlocks said yes
		}
		b := m.freeList[len(m.freeList)-1]
		m.freeList = m.freeList[:len(m.freeList)-1]
		if m.refs != nil {
			m.refs[b] = 1
		}
		s.blocks = append(s.blocks, b)
	}
	s.tokens += extra
	return s
}

// newSeq makes id resident with an empty page table, reusing a recycled
// struct (and its page-table capacity) when one is available.
func (m *Manager) newSeq(id SeqID) *seq {
	var s *seq
	if n := len(m.recycled); n > 0 {
		s = m.recycled[n-1]
		m.recycled[n-1] = nil
		m.recycled = m.recycled[:n-1]
	} else {
		s = new(seq)
	}
	s.owner, s.id = m, id
	m.seqs[id] = s
	return s
}

// Free releases every block of the sequence (request completion or
// preemption-by-recompute). Shared (prefix-cached) blocks only return to
// the free list once their last reference drops. Freeing an absent
// sequence is a no-op.
func (m *Manager) Free(id SeqID) {
	s := m.seqs[id]
	if s == nil {
		return
	}
	if m.refs == nil {
		m.freeList = append(m.freeList, s.blocks...)
	} else {
		// The blocks left cache-only form one run, each linked ahead of
		// the one before it (the tail block is evicted first); the run is
		// spliced in at the list's most recently used end.
		end := int32(m.totalBlocks)
		last, at := m.lruPrev[end], end
		for _, b := range s.blocks {
			m.refs[b]--
			if m.refs[b] == 0 {
				m.freeList = append(m.freeList, b)
			} else if m.refs[b] == 1 && m.cachedAt[b].group != 0 {
				m.cacheOnly++ // only the cache references it now
				m.lruNext[b], m.lruPrev[at] = at, int32(b)
				at = int32(b)
			}
		}
		m.lruNext[last], m.lruPrev[at] = at, last
	}
	delete(m.seqs, id)
	s.owner = nil // a Handle still naming s stops validating
	if len(m.recycled) < maxRecycledSeqs {
		// A reused SeqID (preempt-and-recompute) starts with no watermark.
		*s = seq{blocks: s.blocks[:0]}
		m.recycled = append(m.recycled, s)
	}
}

// checkInvariants returns an error when internal accounting is broken.
// With prefix caching enabled, blocks may be shared: the expected reference
// count of a block is the number of page tables containing it plus one if
// the prefix cache registers it.
func (m *Manager) checkInvariants() error {
	expectedRefs := make([]int, m.totalBlocks)
	lastSeq := make([]int, m.totalBlocks) // ordinal of the last sequence holding the block
	ordinal := 0
	for id, s := range m.seqs {
		ordinal++
		if s.owner != m || s.id != id {
			return fmt.Errorf("kvcache: seq %d resident in a struct naming seq %d of manager %p", id, s.id, s.owner)
		}
		if m.blocksFor(s.tokens) != len(s.blocks) {
			return fmt.Errorf("kvcache: seq %d has %d tokens but %d blocks", id, s.tokens, len(s.blocks))
		}
		if s.registered < 0 || s.registered > len(s.blocks) || (s.registered > 0 && m.refs == nil) {
			return fmt.Errorf("kvcache: seq %d registered watermark %d outside its %d blocks",
				id, s.registered, len(s.blocks))
		}
		for idx, b := range s.blocks {
			if b < 0 || b >= m.totalBlocks {
				return fmt.Errorf("kvcache: block %d out of range", b)
			}
			if lastSeq[b] == ordinal {
				return fmt.Errorf("kvcache: block %d twice in seq %d", b, id)
			}
			lastSeq[b] = ordinal
			expectedRefs[b]++
			if idx < s.registered && m.cachedAt[b] != (blockKey{s.regGroup, idx}) {
				return fmt.Errorf("kvcache: seq %d block %d below watermark %d is not its group's entry %d",
					id, b, s.registered, idx)
			}
		}
	}
	if len(m.recycled) > maxRecycledSeqs {
		return fmt.Errorf("kvcache: %d recycled seq structs exceed bound %d", len(m.recycled), maxRecycledSeqs)
	}
	for _, s := range m.recycled {
		if s.owner != nil {
			return fmt.Errorf("kvcache: recycled struct still names seq %d", s.id)
		}
	}
	if err := m.checkPrefixInvariants(expectedRefs); err != nil {
		return err
	}
	inFree := make([]bool, m.totalBlocks)
	for _, b := range m.freeList {
		if inFree[b] {
			return fmt.Errorf("kvcache: block %d twice in free list", b)
		}
		inFree[b] = true
		if expectedRefs[b] != 0 {
			return fmt.Errorf("kvcache: block %d free but referenced %d times", b, expectedRefs[b])
		}
	}
	referenced := 0
	for b, want := range expectedRefs {
		if m.refs != nil && m.refs[b] != want {
			return fmt.Errorf("kvcache: block %d refcount %d, want %d", b, m.refs[b], want)
		}
		if want > 0 {
			referenced++
		} else if !inFree[b] {
			return fmt.Errorf("kvcache: block %d neither free nor referenced", b)
		}
	}
	if referenced+len(m.freeList) != m.totalBlocks {
		return fmt.Errorf("kvcache: %d referenced + %d free != %d total", referenced, len(m.freeList), m.totalBlocks)
	}
	return nil
}

// Verify returns an error if internal invariants are violated.
func (m *Manager) Verify() error { return m.checkInvariants() }

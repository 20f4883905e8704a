package kvcache

// The map-based manager this package shipped before the slot-indexed
// rebuild, moved here verbatim (only the type names changed) as the
// differential oracle: TestDifferentialOracle and FuzzKVAllocFree apply
// every operation to both implementations and demand identical page tables,
// counters and prefix matches. Do not optimize it — its value is that it is
// the old code.

import (
	"fmt"
	"sort"
)

// oracleManager allocates KV-cache blocks to sequences. It is not safe for
// concurrent use; in the simulated engines it lives on the driver and in
// the concurrent runtime it is owned by the driver goroutine.
type oracleManager struct {
	blockSize   int
	totalBlocks int
	freeList    []int           // LIFO free block IDs
	tables      map[SeqID][]int // seq -> ordered block IDs
	tokens      map[SeqID]int   // seq -> token count

	allocs int // completed Allocate calls
	frees  int // completed Free calls

	// Prefix-cache state (lazily initialized; see prefix.go).
	refs      []int                   // per-block reference count (0 = free)
	cache     map[oraclePrefixKey]int // (group, idx) -> cached block
	cachedKey map[int]oraclePrefixKey // reverse index
	cacheOnly int                     // cached blocks with no sequence reference (evictable)
	hits      int
	hitTokens int64
	evictions int

	// evictHeap is a lazy binary min-heap of candidate evictable block
	// ids: a block is pushed when it becomes cache-only and validated when
	// popped, so eviction under a saturated cache costs O(log n) per block
	// instead of rebuilding and sorting the whole evictable set on every
	// evictOne (which collapsed day-scale prefix-cached serving — every
	// allocation against a pool-spanning cache paid O(cached·log cached)
	// per block). inEvictHeap bounds the heap to one entry per block; the
	// eviction order is unchanged (always the smallest evictable id).
	evictHeap   []int
	inEvictHeap []bool
}

// newOracle builds a manager holding capacityTokens token slots grouped into
// blocks of blockSize tokens. Partial trailing capacity is discarded
// (block-granular, like vLLM). It panics when blockSize <= 0 or the
// capacity holds no complete block.
func newOracle(capacityTokens int64, blockSize int) *oracleManager {
	if blockSize <= 0 {
		panic(fmt.Sprintf("kvcache: blockSize = %d", blockSize))
	}
	nblocks := int(capacityTokens / int64(blockSize))
	if nblocks <= 0 {
		panic(fmt.Sprintf("kvcache: capacity %d tokens holds no block of %d", capacityTokens, blockSize))
	}
	m := &oracleManager{
		blockSize:   blockSize,
		totalBlocks: nblocks,
		freeList:    make([]int, nblocks),
		tables:      make(map[SeqID][]int),
		tokens:      make(map[SeqID]int),
	}
	// Hand out low block IDs first for deterministic page tables.
	for i := range m.freeList {
		m.freeList[i] = nblocks - 1 - i
	}
	return m
}

// BlockSize returns tokens per block.
func (m *oracleManager) BlockSize() int { return m.blockSize }

// TotalBlocks returns the total block count.
func (m *oracleManager) TotalBlocks() int { return m.totalBlocks }

// FreeBlocks returns the allocatable block count: free-list blocks plus
// cached blocks no sequence references (those are evicted on demand, so
// prefix-cache residency never shrinks the capacity schedulers see).
func (m *oracleManager) FreeBlocks() int { return len(m.freeList) + m.cacheOnly }

// UsedBlocks returns totalBlocks - FreeBlocks().
func (m *oracleManager) UsedBlocks() int { return m.totalBlocks - m.FreeBlocks() }

// Allocs returns the number of successful Allocate calls.
func (m *oracleManager) Allocs() int { return m.allocs }

// Frees returns the number of Free calls that released a sequence.
func (m *oracleManager) Frees() int { return m.frees }

// CapacityTokens returns the total token slots managed.
func (m *oracleManager) CapacityTokens() int64 {
	return int64(m.totalBlocks) * int64(m.blockSize)
}

// FreeRate returns the fraction of blocks currently allocatable — the
// paper's KV_free ∈ [0,1]. Like FreeBlocks, it counts evictable
// cache-only blocks as free: Allocate evicts them on demand, so a
// prefix cache that has grown to span the whole pool must not read as
// exhaustion (the token throttle would otherwise suspend prefill
// against a cache it could evict, stalling an idle pipeline forever).
func (m *oracleManager) FreeRate() float64 {
	return float64(m.FreeBlocks()) / float64(m.totalBlocks)
}

// UsedRate returns 1 - FreeRate.
func (m *oracleManager) UsedRate() float64 { return 1 - m.FreeRate() }

// Has reports whether the sequence owns cache blocks.
func (m *oracleManager) Has(id SeqID) bool {
	_, ok := m.tokens[id]
	return ok
}

// TokensOf returns the number of cached tokens of a sequence (0 if absent).
func (m *oracleManager) TokensOf(id SeqID) int { return m.tokens[id] }

// Sequences returns the resident sequence IDs in ascending order.
func (m *oracleManager) Sequences() []SeqID {
	out := make([]SeqID, 0, len(m.tokens))
	for id := range m.tokens {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// blocksFor returns the blocks needed to hold n tokens.
func (m *oracleManager) blocksFor(n int) int {
	return (n + m.blockSize - 1) / m.blockSize
}

// BlocksNeeded returns how many new blocks appending extra tokens to the
// sequence would require (0 if the trailing block has room).
func (m *oracleManager) BlocksNeeded(id SeqID, extra int) int {
	if extra < 0 {
		panic(fmt.Sprintf("kvcache: negative token count %d", extra))
	}
	cur := m.tokens[id]
	return m.blocksFor(cur+extra) - m.blocksFor(cur)
}

// CanAllocate reports whether appending extra tokens to the sequence would
// succeed right now (counting evictable cached blocks as free).
func (m *oracleManager) CanAllocate(id SeqID, extra int) bool {
	return m.BlocksNeeded(id, extra) <= m.FreeBlocks()
}

// Allocate appends extra token slots to the sequence, claiming blocks from
// the free list. It fails atomically (no blocks claimed) when the cache
// cannot hold them. Allocating zero tokens for an unknown sequence creates
// an empty page table.
func (m *oracleManager) Allocate(id SeqID, extra int) error {
	need := m.BlocksNeeded(id, extra)
	if free := m.FreeBlocks(); need > free {
		return fmt.Errorf("kvcache: need %d blocks for seq %d, only %d free", need, id, free)
	}
	if _, ok := m.tokens[id]; !ok {
		m.tokens[id] = 0
		m.tables[id] = nil
	}
	for i := 0; i < need; i++ {
		if len(m.freeList) == 0 && !m.evictOne() {
			panic("kvcache: free accounting out of sync") // CanAllocate said yes
		}
		b := m.freeList[len(m.freeList)-1]
		m.freeList = m.freeList[:len(m.freeList)-1]
		if m.refs != nil {
			m.refs[b] = 1
		}
		m.tables[id] = append(m.tables[id], b)
	}
	m.tokens[id] += extra
	m.allocs++
	return nil
}

// Free releases every block of the sequence (request completion or
// preemption-by-recompute). Shared (prefix-cached) blocks only return to
// the free list once their last reference drops. Freeing an absent
// sequence is a no-op.
func (m *oracleManager) Free(id SeqID) {
	blocks, ok := m.tables[id]
	if !ok {
		return
	}
	if m.refs == nil {
		m.freeList = append(m.freeList, blocks...)
	} else {
		for _, b := range blocks {
			m.refs[b]--
			if m.refs[b] == 0 {
				m.freeList = append(m.freeList, b)
			} else if m.refs[b] == 1 {
				if _, cached := m.cachedKey[b]; cached {
					m.cacheOnly++ // only the cache references it now
					m.pushEvict(b)
				}
			}
		}
	}
	delete(m.tables, id)
	delete(m.tokens, id)
	m.frees++
}

// checkInvariants returns an error when internal accounting is broken.
// With prefix caching enabled, blocks may be shared: the expected reference
// count of a block is the number of page tables containing it plus one if
// the prefix cache registers it.
func (m *oracleManager) checkInvariants() error {
	expectedRefs := make([]int, m.totalBlocks)
	for id, blocks := range m.tables {
		if m.blocksFor(m.tokens[id]) != len(blocks) {
			return fmt.Errorf("kvcache: seq %d has %d tokens but %d blocks", id, m.tokens[id], len(blocks))
		}
		seenInSeq := make(map[int]bool, len(blocks))
		for _, b := range blocks {
			if b < 0 || b >= m.totalBlocks {
				return fmt.Errorf("kvcache: block %d out of range", b)
			}
			if seenInSeq[b] {
				return fmt.Errorf("kvcache: block %d twice in seq %d", b, id)
			}
			seenInSeq[b] = true
			expectedRefs[b]++
		}
	}
	for key, b := range m.cache {
		if got, ok := m.cachedKey[b]; !ok || got != key {
			return fmt.Errorf("kvcache: cache index inconsistent for block %d", b)
		}
		expectedRefs[b]++
	}
	if len(m.cache) != len(m.cachedKey) {
		return fmt.Errorf("kvcache: cache maps out of sync (%d vs %d)", len(m.cache), len(m.cachedKey))
	}
	inFree := make(map[int]bool, len(m.freeList))
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
	if got := len(m.evictableBlocks()); got != m.cacheOnly {
		return fmt.Errorf("kvcache: cacheOnly counter %d, actual evictable %d", m.cacheOnly, got)
	}
	// The lazy heap must hold (at least) every currently evictable block,
	// or evictOne would wrongly report an exhausted cache.
	for _, b := range m.evictableBlocks() {
		if !m.inEvictHeap[b] {
			return fmt.Errorf("kvcache: evictable block %d missing from evict heap", b)
		}
	}
	if len(m.evictHeap) > m.totalBlocks {
		return fmt.Errorf("kvcache: evict heap %d entries exceeds %d blocks", len(m.evictHeap), m.totalBlocks)
	}
	return nil
}

// Verify returns an error if internal invariants are violated.
func (m *oracleManager) Verify() error { return m.checkInvariants() }

// oraclePrefixKey addresses one cached block.
type oraclePrefixKey struct {
	group int64
	idx   int
}

// initPrefix lazily initializes prefix state (keeps New unchanged).
func (m *oracleManager) initPrefix() {
	if m.refs != nil {
		return
	}
	m.refs = make([]int, m.totalBlocks)
	for id, blocks := range m.tables {
		_ = id
		for _, b := range blocks {
			m.refs[b] = 1
		}
	}
	m.cache = make(map[oraclePrefixKey]int)
	m.cachedKey = make(map[int]oraclePrefixKey)
	m.inEvictHeap = make([]bool, m.totalBlocks)
}

// pushEvict queues a block as an eviction candidate (at most once).
func (m *oracleManager) pushEvict(b int) {
	if m.inEvictHeap[b] {
		return
	}
	m.inEvictHeap[b] = true
	m.evictHeap = append(m.evictHeap, b)
	// Sift up.
	h := m.evictHeap
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// popEvictMin removes and returns the smallest queued candidate id.
func (m *oracleManager) popEvictMin() int {
	h := m.evictHeap
	b := h[0]
	m.inEvictHeap[b] = false
	last := len(h) - 1
	h[0] = h[last]
	m.evictHeap = h[:last]
	h = m.evictHeap
	// Sift down.
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return b
}

// MatchPrefix returns how many leading tokens of a prompt in the given
// group are resident in the cache: the longest run of consecutive cached
// blocks (group, 0..k-1), capped at maxTokens rounded down to whole blocks.
func (m *oracleManager) MatchPrefix(group int64, maxTokens int) int {
	if group == 0 || maxTokens <= 0 {
		return 0
	}
	m.initPrefix()
	matched := 0
	for idx := 0; (idx+1)*m.blockSize <= maxTokens; idx++ {
		if _, ok := m.cache[oraclePrefixKey{group, idx}]; !ok {
			break
		}
		matched += m.blockSize
	}
	return matched
}

// AttachPrefix links a fresh sequence to the cached leading blocks of its
// group, covering up to maxTokens tokens. It returns the number of tokens
// attached (a multiple of the block size; 0 when nothing matches). The
// sequence must not hold any blocks yet.
func (m *oracleManager) AttachPrefix(id SeqID, group int64, maxTokens int) int {
	if m.TokensOf(id) > 0 {
		panic(fmt.Sprintf("kvcache: AttachPrefix to non-fresh seq %d", id))
	}
	matched := m.MatchPrefix(group, maxTokens)
	if matched == 0 {
		return 0
	}
	m.initPrefix()
	if _, ok := m.tokens[id]; !ok {
		m.tokens[id] = 0
		m.tables[id] = nil
	}
	for idx := 0; idx < matched/m.blockSize; idx++ {
		b := m.cache[oraclePrefixKey{group, idx}]
		m.refs[b]++
		if m.refs[b] == 2 {
			m.cacheOnly-- // a sequence references it again
		}
		m.tables[id] = append(m.tables[id], b)
	}
	m.tokens[id] = matched
	m.hits++
	m.hitTokens += int64(matched)
	return matched
}

// RegisterPrefix publishes the first upTo tokens' worth of full blocks of a
// sequence into the group's cache (idempotent; already-cached indices are
// skipped). Call it once the shared region's KV has been computed.
func (m *oracleManager) RegisterPrefix(id SeqID, group int64, upTo int) {
	if group == 0 || upTo <= 0 {
		return
	}
	m.initPrefix()
	blocks := m.tables[id]
	n := upTo / m.blockSize // full blocks only
	if n > len(blocks) {
		n = len(blocks)
	}
	for idx := 0; idx < n; idx++ {
		key := oraclePrefixKey{group, idx}
		if _, ok := m.cache[key]; ok {
			continue
		}
		b := blocks[idx]
		if existing, ok := m.cachedKey[b]; ok && existing != key {
			// The block already backs another prefix (the sequence was
			// itself attached to a different group) — do not re-publish.
			continue
		}
		m.cache[key] = b
		m.cachedKey[b] = key
		m.refs[b]++
		if m.refs[b] == 1 {
			m.cacheOnly++ // defensive: registration of an otherwise-unowned block
			m.pushEvict(b)
		}
	}
}

// CachedBlocks returns how many blocks are currently registered in the
// prefix cache (referenced or not). A pure read: it never initializes
// prefix state, so gauge scrapes of non-prefix deployments stay free.
func (m *oracleManager) CachedBlocks() int {
	return len(m.cache)
}

// PrefixHits returns (hit count, total tokens served from cache).
func (m *oracleManager) PrefixHits() (int, int64) { return m.hits, m.hitTokens }

// evictableBlocks returns cached blocks whose only reference is the cache
// itself, in deterministic (ascending block id) order.
func (m *oracleManager) evictableBlocks() []int {
	if m.refs == nil {
		return nil
	}
	var out []int
	for b := range m.cachedKey {
		if m.refs[b] == 1 {
			out = append(out, b)
		}
	}
	sort.Ints(out)
	return out
}

// evictOne drops the lowest-id cache-only block into the free list;
// reports success. Candidates come from the lazy heap: entries whose block
// was re-referenced (or already evicted) since being queued are discarded;
// such a block is re-queued by the next transition back to cache-only, so
// the heap always holds a superset of the evictable set and the minimum
// valid entry is exactly the block the old full-scan picked.
func (m *oracleManager) evictOne() bool {
	for len(m.evictHeap) > 0 {
		b := m.popEvictMin()
		key, cached := m.cachedKey[b]
		if !cached || m.refs[b] != 1 {
			continue // stale candidate: re-referenced or gone
		}
		delete(m.cache, key)
		delete(m.cachedKey, b)
		m.refs[b] = 0
		m.cacheOnly--
		m.freeList = append(m.freeList, b)
		m.evictions++
		return true
	}
	return false
}

// Evictions returns how many cached blocks were reclaimed under pressure.
func (m *oracleManager) Evictions() int { return m.evictions }

package kvcache

import "fmt"

// Prefix caching (the paper integrates vLLM-style prefix caching, §3.4):
// full blocks of a shared prompt prefix are content-addressed by
// (prefix group, block index) and reused across requests via reference
// counting. A cached block that no sequence references stays out of the
// free list but is evicted on demand, so cache residency never reduces the
// allocatable capacity the scheduler sees.
//
// Content identity is (group, index) rather than a token hash because the
// simulation carries token counts, not token values; a group models "these
// requests share the same leading tokens" (e.g. turns of one conversation
// or a common system prompt).
//
// Structures: each group has one chain — blocks[idx] is the block cached
// for (group, idx), or noBlock where that index was never registered or
// has been evicted — and cachedAt is the dense reverse index from block id
// to the (group, idx) it backs. Matching and attaching a prefix is one map
// lookup plus a slice scan; eviction and release are array writes.

// noBlock marks a chain index that holds no cached block.
const noBlock = -1

// chain is one prefix group's cached blocks by block index.
type chain struct {
	blocks []int // idx -> block id, or noBlock
	live   int   // entries that are not noBlock
}

// blockKey is the (group, idx) a cached block backs; group 0 (never a
// valid prefix group) marks a block the cache does not hold.
type blockKey struct {
	group int64
	idx   int
}

// initPrefix allocates the prefix state on first registration, so
// deployments that never register a prefix pay nothing for it.
func (m *Manager) initPrefix() {
	if m.refs != nil {
		return
	}
	m.refs = make([]int, m.totalBlocks)
	for _, s := range m.seqs {
		for _, b := range s.blocks {
			m.refs[b] = 1
		}
	}
	m.chains = make(map[int64]*chain)
	m.cachedAt = make([]blockKey, m.totalBlocks)
	m.inEvictHeap = make([]bool, m.totalBlocks)
}

// pushEvict queues a block as an eviction candidate (at most once).
func (m *Manager) pushEvict(b int) {
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
func (m *Manager) popEvictMin() int {
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

// matchBlocks returns the group's chain and how many of its leading
// entries are cached, capped at the whole blocks maxTokens covers.
func (m *Manager) matchBlocks(group int64, maxTokens int) (*chain, int) {
	if group == 0 || maxTokens <= 0 {
		return nil, 0
	}
	c := m.chains[group]
	if c == nil {
		return nil, 0
	}
	n := maxTokens / m.blockSize
	if n > len(c.blocks) {
		n = len(c.blocks)
	}
	for idx := 0; idx < n; idx++ {
		if c.blocks[idx] == noBlock {
			return c, idx
		}
	}
	return c, n
}

// MatchPrefix returns how many leading tokens of a prompt in the given
// group are resident in the cache: the longest run of consecutive cached
// blocks (group, 0..k-1), capped at maxTokens rounded down to whole blocks.
// A pure read.
func (m *Manager) MatchPrefix(group int64, maxTokens int) int {
	_, n := m.matchBlocks(group, maxTokens)
	return n * m.blockSize
}

// AttachPrefix links a fresh sequence to the cached leading blocks of its
// group, covering up to maxTokens tokens. It returns the number of tokens
// attached (a multiple of the block size; 0 when nothing matches). The
// sequence must not hold any blocks yet.
func (m *Manager) AttachPrefix(id SeqID, group int64, maxTokens int) int {
	s := m.seqs[id]
	if s != nil && s.tokens > 0 {
		panic(fmt.Sprintf("kvcache: AttachPrefix to non-fresh seq %d", id))
	}
	c, n := m.matchBlocks(group, maxTokens)
	if n == 0 {
		return 0
	}
	if s == nil {
		s = m.newSeq(id)
	}
	for _, b := range c.blocks[:n] {
		m.refs[b]++
		if m.refs[b] == 2 {
			m.cacheOnly-- // a sequence references it again
		}
	}
	s.blocks = append(s.blocks, c.blocks[:n]...)
	s.tokens = n * m.blockSize
	// Every attached index is cached as this sequence's own block.
	s.regGroup, s.registered = group, n
	m.hits++
	m.hitTokens += int64(s.tokens)
	return s.tokens
}

// RegisterPrefix publishes the first upTo tokens' worth of full blocks of a
// sequence into the group's cache (idempotent; already-cached indices are
// skipped). Call it once the shared region's KV has been computed.
//
// A serving sequence registers twice (entering decode, then finishing), so
// each call resumes at the sequence's watermark instead of re-probing every
// block. The watermark covers only a leading run of indices whose chain
// entry is this sequence's own block: such a block is referenced by both
// the cache and the sequence, so it cannot be evicted while the sequence
// lives and a full walk would skip it too. An index skipped for any other
// reason — another block backs the key, or this block already backs
// another key — stops the advance and is re-examined by the next call
// (the other block may have been evicted by then).
func (m *Manager) RegisterPrefix(id SeqID, group int64, upTo int) {
	if group == 0 || upTo <= 0 {
		return
	}
	s := m.seqs[id]
	if s == nil {
		return
	}
	n := upTo / m.blockSize // full blocks only
	if n > len(s.blocks) {
		n = len(s.blocks)
	}
	if s.regGroup != group {
		s.regGroup, s.registered = group, 0
	}
	if s.registered >= n {
		return
	}
	m.initPrefix()
	c := m.chains[group]
	if c == nil {
		c = &chain{blocks: make([]int, 0, n)}
		m.chains[group] = c
	}
	for len(c.blocks) < n {
		c.blocks = append(c.blocks, noBlock)
	}
	contiguous := true
	for idx := s.registered; idx < n; idx++ {
		b := s.blocks[idx]
		switch {
		case c.blocks[idx] != noBlock:
			// Already cached; only our own block extends the watermark.
			contiguous = contiguous && c.blocks[idx] == b
		case m.cachedAt[b].group != 0:
			// The block already backs another prefix (the sequence was
			// itself attached to a different group) — do not re-publish.
			contiguous = false
		default:
			c.blocks[idx] = b
			c.live++
			m.cached++
			m.cachedAt[b] = blockKey{group, idx}
			m.refs[b]++
			if m.refs[b] == 1 {
				m.cacheOnly++ // defensive: registration of an otherwise-unowned block
				m.pushEvict(b)
			}
		}
		if contiguous {
			s.registered = idx + 1
		}
	}
	if c.live == 0 {
		delete(m.chains, group) // nothing registered: leave no empty chain
	}
}

// CachedBlocks returns how many blocks are currently registered in the
// prefix cache (referenced or not).
func (m *Manager) CachedBlocks() int { return m.cached }

// PrefixHits returns (hit count, total tokens served from cache).
func (m *Manager) PrefixHits() (int, int64) { return m.hits, m.hitTokens }

// evictOne drops the lowest-id cache-only block into the free list;
// reports success. Candidates come from the lazy heap: entries whose block
// was re-referenced (or already evicted) since being queued are discarded;
// such a block is re-queued by the next transition back to cache-only, so
// the heap always holds a superset of the evictable set and the minimum
// valid entry is exactly the block a full scan would pick.
func (m *Manager) evictOne() bool {
	for len(m.evictHeap) > 0 {
		b := m.popEvictMin()
		key := m.cachedAt[b]
		if key.group == 0 || m.refs[b] != 1 {
			continue // stale candidate: re-referenced or gone
		}
		c := m.chains[key.group]
		c.blocks[key.idx] = noBlock
		if c.live--; c.live == 0 {
			delete(m.chains, key.group)
		}
		m.cachedAt[b] = blockKey{}
		m.cached--
		m.refs[b] = 0
		m.cacheOnly--
		m.freeList = append(m.freeList, b)
		m.evictions++
		return true
	}
	return false
}

// Evictions returns how many cached blocks were reclaimed under pressure.
func (m *Manager) Evictions() int { return m.evictions }

// checkPrefixInvariants audits the prefix structures against each other and
// adds the cache's own reference to expectedRefs: every chain entry agrees
// with the reverse index, the cached counter equals the non-hole entries,
// no empty chain lingers, and the evict heap covers every evictable block.
func (m *Manager) checkPrefixInvariants(expectedRefs []int) error {
	if m.refs == nil {
		if m.cached != 0 || m.cacheOnly != 0 {
			return fmt.Errorf("kvcache: %d cached / %d cache-only blocks without prefix state", m.cached, m.cacheOnly)
		}
		return nil
	}
	entries := 0
	for group, c := range m.chains {
		live := 0
		for idx, b := range c.blocks {
			if b == noBlock {
				continue
			}
			if b < 0 || b >= m.totalBlocks || m.cachedAt[b] != (blockKey{group, idx}) {
				return fmt.Errorf("kvcache: chain %d[%d] = block %d disagrees with the reverse index", group, idx, b)
			}
			expectedRefs[b]++
			live++
		}
		if live != c.live || live == 0 {
			return fmt.Errorf("kvcache: chain %d counts %d live entries, holds %d", group, c.live, live)
		}
		entries += live
	}
	indexed, evictable := 0, 0
	for b, key := range m.cachedAt {
		if key.group == 0 {
			continue
		}
		indexed++
		if m.refs[b] == 1 {
			evictable++
			// The lazy heap must hold (at least) every currently evictable
			// block, or evictOne would wrongly report an exhausted cache.
			if !m.inEvictHeap[b] {
				return fmt.Errorf("kvcache: evictable block %d missing from evict heap", b)
			}
		}
	}
	if entries != m.cached || indexed != m.cached {
		return fmt.Errorf("kvcache: cached counter %d, %d chain entries, %d indexed blocks", m.cached, entries, indexed)
	}
	if evictable != m.cacheOnly {
		return fmt.Errorf("kvcache: cacheOnly counter %d, actual evictable %d", m.cacheOnly, evictable)
	}
	if len(m.evictHeap) > m.totalBlocks {
		return fmt.Errorf("kvcache: evict heap %d entries exceeds %d blocks", len(m.evictHeap), m.totalBlocks)
	}
	return nil
}

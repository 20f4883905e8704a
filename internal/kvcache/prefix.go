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
// to the (group, idx) it backs. A chain keeps the length of its leading
// cached run, so matching a prefix is one map lookup; eviction and release
// are array writes.
//
// Eviction order (vLLM's free-block queue, SGLang's radix-tree LRU): the
// least recently used cache-only block goes first, and of the blocks one
// Free leaves cache-only the sequence's tail goes first. A chain then
// shrinks from its end, so its leading run — what MatchPrefix reports and
// AttachPrefix reuses — outlives the blocks behind it.

// noBlock marks a chain index that holds no cached block.
const noBlock = -1

// chain is one prefix group's cached blocks by block index.
type chain struct {
	blocks []int // idx -> block id, or noBlock
	live   int   // entries that are not noBlock
	run    int   // leading entries that are not noBlock
}

// leadingRun counts the chain's leading cached entries, resuming the scan
// at from, below which every entry is known to be cached.
func (c *chain) leadingRun(from int) int {
	for from < len(c.blocks) && c.blocks[from] != noBlock {
		from++
	}
	return from
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
	m.lruPrev = make([]int32, m.totalBlocks+1)
	m.lruNext = make([]int32, m.totalBlocks+1)
	end := int32(m.totalBlocks) // the sentinel: an empty list links to itself
	m.lruPrev[end], m.lruNext[end] = end, end
}

// unlink takes block b off the LRU list.
func (m *Manager) unlink(b int32) {
	p, n := m.lruPrev[b], m.lruNext[b]
	m.lruNext[p], m.lruPrev[n] = n, p
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
	return c, min(c.run, maxTokens/m.blockSize)
}

// OnPrefixRun installs f to be told, synchronously, every time a group's
// leading cached run changes: f(group, tokens) with the new length in
// tokens (0 once nothing leading is cached). Nil, the default, reports
// nothing.
func (m *Manager) OnPrefixRun(f func(group int64, tokens int)) { m.onRun = f }

// setRun records a chain's new leading run and reports it when it moved.
func (m *Manager) setRun(group int64, c *chain, run int) {
	if run != c.run {
		c.run = run
		if m.onRun != nil {
			m.onRun(group, run*m.blockSize)
		}
	}
}

// MatchPrefix returns how many leading tokens of a prompt in the given
// group are resident in the cache: the longest run of consecutive cached
// blocks (group, 0..k-1), capped at maxTokens rounded down to whole blocks.
// One lookup; a pure read.
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
			m.unlink(int32(b))
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
			m.refs[b]++ // the sequence's own reference stays: never cache-only here
		}
		if contiguous {
			s.registered = idx + 1
		}
	}
	m.setRun(group, c, c.leadingRun(c.run))
	if c.live == 0 {
		delete(m.chains, group) // nothing registered: leave no empty chain
	}
}

// CachedBlocks returns how many blocks are currently registered in the
// prefix cache (referenced or not).
func (m *Manager) CachedBlocks() int { return m.cached }

// PrefixHits returns (hit count, total tokens served from cache).
func (m *Manager) PrefixHits() (int, int64) { return m.hits, m.hitTokens }

// evictOne drops the least recently used cache-only block, the LRU list's
// head, into the free list; reports success.
func (m *Manager) evictOne() bool {
	if m.cacheOnly == 0 {
		return false
	}
	b := m.lruNext[m.totalBlocks]
	m.unlink(b)
	key := m.cachedAt[b]
	c := m.chains[key.group]
	c.blocks[key.idx] = noBlock
	m.setRun(key.group, c, min(c.run, key.idx))
	if c.live--; c.live == 0 {
		delete(m.chains, key.group)
	}
	m.cachedAt[b] = blockKey{}
	m.cached--
	m.refs[b] = 0
	m.cacheOnly--
	m.freeList = append(m.freeList, int(b))
	m.evictions++
	return true
}

// Evictions returns how many cached blocks were reclaimed under pressure.
func (m *Manager) Evictions() int { return m.evictions }

// checkPrefixInvariants audits the prefix structures against each other and
// adds the cache's own reference to expectedRefs: every chain entry agrees
// with the reverse index, the cached counter equals the non-hole entries,
// each chain's run is its leading count of them, no empty chain lingers,
// and the LRU list's links agree both ways and hold exactly the cacheOnly
// cache-only blocks.
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
		if run := c.leadingRun(0); c.run != run {
			return fmt.Errorf("kvcache: chain %d records a leading run of %d, first hole at %d", group, c.run, run)
		}
		entries += live
	}
	end := m.totalBlocks
	linked := make([]bool, end)
	n, prev := 0, end
	for b := int(m.lruNext[end]); b != end; prev, b = b, int(m.lruNext[b]) {
		switch {
		case b < 0 || b > end:
			return fmt.Errorf("kvcache: LRU list links block %d out of range", b)
		case int(m.lruPrev[b]) != prev:
			return fmt.Errorf("kvcache: LRU list links %d -> %d, back link %d", prev, b, m.lruPrev[b])
		case linked[b]:
			return fmt.Errorf("kvcache: block %d twice on the LRU list", b)
		case m.cachedAt[b].group == 0 || m.refs[b] != 1:
			return fmt.Errorf("kvcache: block %d on the LRU list is not cache-only", b)
		}
		linked[b] = true
		n++
	}
	if int(m.lruPrev[end]) != prev {
		return fmt.Errorf("kvcache: LRU list ends at %d, back link %d", prev, m.lruPrev[end])
	}
	if n != m.cacheOnly {
		return fmt.Errorf("kvcache: cacheOnly counter %d, %d blocks on the LRU list", m.cacheOnly, n)
	}
	indexed := 0
	for b, key := range m.cachedAt {
		if key.group == 0 {
			continue
		}
		indexed++
		if m.refs[b] == 1 && !linked[b] {
			return fmt.Errorf("kvcache: cache-only block %d missing from the LRU list", b)
		}
	}
	if entries != m.cached || indexed != m.cached {
		return fmt.Errorf("kvcache: cached counter %d, %d chain entries, %d indexed blocks", m.cached, entries, indexed)
	}
	return nil
}

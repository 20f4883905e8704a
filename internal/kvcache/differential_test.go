package kvcache

import (
	"fmt"
	"slices"
	"testing"

	"gllm/internal/stats"
)

// twin drives the slot-indexed Manager and the map-based oracle with the
// same operations and compares everything a caller can observe after each
// one. The two must never disagree: page tables decide which block ids a
// later eviction picks, and FreeBlocks feeds the token throttle, so any
// drift would eventually change a scheduling decision.
type twin struct {
	t      testing.TB
	m      *Manager
	o      *oracleManager
	groups []int64
	// handles holds one Handle per SeqID, never cleared: across Free, SeqID
	// reuse and struct recycling each goes as stale as a Handle can, and
	// append must still land where the oracle's by-ID Allocate does.
	handles map[SeqID]*Handle
	// runs is the last leading run the manager's hook reported per group;
	// it must always equal MatchPrefix over the whole cache.
	runs map[int64]int
}

func newTwin(t testing.TB, capacityTokens int64, blockSize int, groups ...int64) *twin {
	w := &twin{
		t:       t,
		m:       New(capacityTokens, blockSize),
		o:       newOracle(capacityTokens, blockSize),
		groups:  groups,
		handles: make(map[SeqID]*Handle),
		runs:    make(map[int64]int),
	}
	w.m.OnPrefixRun(func(group int64, tokens int) {
		if tokens == w.runs[group] {
			t.Fatalf("run hook repeated group %d's run of %d tokens", group, tokens)
		}
		w.runs[group] = tokens
	})
	return w
}

// canAllocate compares the two sides' BlocksNeeded and CanAllocate and
// returns the verdict the growth that follows must match.
func (w *twin) canAllocate(id SeqID, extra int) bool {
	w.t.Helper()
	if got, want := w.m.BlocksNeeded(id, extra), w.o.BlocksNeeded(id, extra); got != want {
		w.t.Fatalf("BlocksNeeded(%d,%d) = %d, oracle %d", id, extra, got, want)
	}
	can := w.m.CanAllocate(id, extra)
	if want := w.o.CanAllocate(id, extra); can != want {
		w.t.Fatalf("CanAllocate(%d,%d) = %v, oracle %v", id, extra, can, want)
	}
	return can
}

// allocate applies Allocate to both sides (after CanAllocate, whose verdict
// must match the outcome) and reports whether it succeeded.
func (w *twin) allocate(id SeqID, extra int) bool {
	w.t.Helper()
	can := w.canAllocate(id, extra)
	err, oerr := w.m.Allocate(id, extra), w.o.Allocate(id, extra)
	if (err == nil) != (oerr == nil) || (err == nil) != can {
		w.t.Fatalf("Allocate(%d,%d): %v, oracle %v, CanAllocate %v", id, extra, err, oerr, can)
	}
	if err != nil && err.Error() != oerr.Error() {
		w.t.Fatalf("Allocate(%d,%d) error %q, oracle %q", id, extra, err, oerr)
	}
	return err == nil
}

// append is allocate with the manager's side going through the SeqID's
// long-lived handle; the oracle knows sequences by ID only.
func (w *twin) append(id SeqID, extra int) bool {
	w.t.Helper()
	can := w.canAllocate(id, extra)
	h := w.handles[id]
	if h == nil {
		h = new(Handle)
		w.handles[id] = h
	}
	ok, oerr := w.m.TryAppend(h, id, extra), w.o.Allocate(id, extra)
	if ok != (oerr == nil) || ok != can {
		w.t.Fatalf("TryAppend(%d,%d) = %v, oracle %v, CanAllocate %v", id, extra, ok, oerr, can)
	}
	if ok && h.s != w.m.seqs[id] {
		w.t.Fatalf("TryAppend(%d,%d) left its handle on another struct than seqs[%d]", id, extra, id)
	}
	return ok
}

func (w *twin) free(id SeqID) {
	w.m.Free(id)
	w.o.Free(id)
}

func (w *twin) register(id SeqID, group int64, upTo int) {
	w.m.RegisterPrefix(id, group, upTo)
	w.o.RegisterPrefix(id, group, upTo)
}

// attach applies AttachPrefix to both sides; the sequence must be fresh
// (both implementations panic otherwise).
func (w *twin) attach(id SeqID, group int64, maxTokens int) int {
	w.t.Helper()
	got, want := w.m.AttachPrefix(id, group, maxTokens), w.o.AttachPrefix(id, group, maxTokens)
	if got != want {
		w.t.Fatalf("AttachPrefix(%d,%d,%d) = %d, oracle %d", id, group, maxTokens, got, want)
	}
	return got
}

// grow is the n-th operation's growth: by ID and through the handle in
// alternation.
func (w *twin) grow(n int, id SeqID, extra int) bool {
	w.t.Helper()
	if n%2 == 0 {
		return w.append(id, extra)
	}
	return w.allocate(id, extra)
}

// check compares every observable of the two managers.
func (w *twin) check(label string) {
	w.t.Helper()
	if err := w.m.Verify(); err != nil {
		w.t.Fatalf("%s: Verify: %v", label, err)
	}
	if err := w.o.Verify(); err != nil {
		w.t.Fatalf("%s: oracle Verify: %v", label, err)
	}
	ids, oids := w.m.Sequences(), w.o.Sequences()
	if !slices.Equal(ids, oids) {
		w.t.Fatalf("%s: Sequences = %v, oracle %v", label, ids, oids)
	}
	for _, id := range ids {
		if got, want := w.m.TokensOf(id), w.o.TokensOf(id); got != want {
			w.t.Fatalf("%s: TokensOf(%d) = %d, oracle %d", label, id, got, want)
		}
		if got, want := w.m.seqs[id].blocks, w.o.tables[id]; !slices.Equal(got, want) {
			w.t.Fatalf("%s: page table of %d = %v, oracle %v", label, id, got, want)
		}
	}
	if got, want := w.m.FreeBlocks(), w.o.FreeBlocks(); got != want {
		w.t.Fatalf("%s: FreeBlocks = %d, oracle %d", label, got, want)
	}
	if got, want := w.m.FreeRate(), w.o.FreeRate(); got != want {
		w.t.Fatalf("%s: FreeRate = %v, oracle %v", label, got, want)
	}
	if got, want := w.m.CachedBlocks(), w.o.CachedBlocks(); got != want {
		w.t.Fatalf("%s: CachedBlocks = %d, oracle %d", label, got, want)
	}
	if got, want := w.m.Evictions(), w.o.Evictions(); got != want {
		w.t.Fatalf("%s: Evictions = %d, oracle %d", label, got, want)
	}
	hits, toks := w.m.PrefixHits()
	ohits, otoks := w.o.PrefixHits()
	if hits != ohits || toks != otoks {
		w.t.Fatalf("%s: PrefixHits = %d/%d, oracle %d/%d", label, hits, toks, ohits, otoks)
	}
	whole := int(w.m.CapacityTokens())
	for _, g := range w.groups {
		if got, want := w.runs[g], w.m.MatchPrefix(g, 1<<20); got != want {
			w.t.Fatalf("%s: run hook last reported %d tokens for group %d, MatchPrefix %d", label, got, g, want)
		}
		for _, max := range []int{whole, whole / 3} {
			if got, want := w.m.MatchPrefix(g, max), w.o.MatchPrefix(g, max); got != want {
				w.t.Fatalf("%s: MatchPrefix(%d,%d) = %d, oracle %d", label, g, max, got, want)
			}
		}
	}
}

// TestDifferentialOracle replays seeded random serving traffic — admit
// with prefix attach, chunked growth (every other one through a handle that
// outlives its sequence), registration at arbitrary points, release, SeqID
// reuse — over a cache small enough to stay saturated, and compares the
// rebuilt manager with the old one after every operation.
func TestDifferentialOracle(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := stats.NewRNG(seed)
		const bs = 8
		blocks := rng.IntRange(6, 48)
		groups := []int64{1, 2, 3, 4, 5}
		w := newTwin(t, int64(blocks*bs), bs, groups...)
		live := map[SeqID]int64{} // seq -> the group it serves
		ids := func() []SeqID {
			out := make([]SeqID, 0, len(live))
			for id := range live {
				out = append(out, id)
			}
			slices.Sort(out)
			return out
		}
		pick := func() SeqID { s := ids(); return s[rng.Intn(len(s))] }
		for op := 0; op < 600; op++ {
			switch k := rng.Intn(10); {
			case k < 3: // admit, reusing a small SeqID space (preempt-and-recompute does)
				id := SeqID(rng.Intn(12))
				if _, resident := live[id]; resident {
					break
				}
				group := groups[rng.Intn(len(groups))]
				want := rng.IntRange(1, 12*bs)
				got := w.attach(id, group, rng.IntRange(0, want))
				if rest := want - got; rest > 0 {
					w.grow(op, id, rest)
				}
				if w.m.Has(id) {
					live[id] = group
				}
			case k < 5 && len(live) > 0: // grow (a prefill chunk or a decode token)
				w.grow(op, pick(), rng.IntRange(1, 2*bs))
			case k < 7 && len(live) > 0: // register, mostly under the group it serves
				id := pick()
				group := live[id]
				if rng.Intn(5) == 0 {
					group = groups[rng.Intn(len(groups))]
				}
				upTo := w.m.TokensOf(id)
				if rng.Intn(3) == 0 {
					upTo = rng.IntRange(0, upTo+bs)
				}
				w.register(id, group, upTo)
			case k < 9 && len(live) > 0: // finish: register everything, release
				id := pick()
				if rng.Intn(4) > 0 {
					w.register(id, live[id], w.m.TokensOf(id))
				}
				w.free(id)
				delete(live, id)
			default: // a release of something absent must stay a no-op
				w.free(SeqID(100 + rng.Intn(4)))
			}
			w.check(fmt.Sprintf("seed %d op %d", seed, op))
		}
		for _, id := range ids() {
			w.free(id)
		}
		w.check("drained")
		if w.m.FreeBlocks() != w.m.TotalBlocks() {
			t.Fatalf("seed %d: %d of %d blocks allocatable after drain", seed, w.m.FreeBlocks(), w.m.TotalBlocks())
		}
	}
}

// TestRegisterWatermarkReexaminesSkippedIndex pins the watermark rule: an
// index skipped because another sequence's block backs the key must not be
// counted as registered — once that block is evicted, the next call has to
// publish this sequence's own block there.
func TestRegisterWatermarkReexaminesSkippedIndex(t *testing.T) {
	const bs = 8
	w := newTwin(t, 32*bs, bs, 1)
	w.allocate(0, 2*bs)
	w.register(0, 1, 2*bs)
	w.free(0) // blocks 0,1 back (1,0),(1,1), cache-only
	w.allocate(1, 2*bs)
	w.register(1, 1, 2*bs) // both indices skipped: blocks 0,1 back them
	w.check("skipped")
	if s := w.m.seqs[1]; s.registered != 0 {
		t.Fatalf("watermark advanced to %d over indices another block backs", s.registered)
	}
	w.allocate(2, 30*bs) // 28 free blocks + both cache-only ones: evicts 0 and 1
	if w.m.Evictions() != 2 || w.m.MatchPrefix(1, 2*bs) != 0 {
		t.Fatalf("setup: %d evictions, match %d", w.m.Evictions(), w.m.MatchPrefix(1, 2*bs))
	}
	w.register(1, 1, 2*bs)
	w.check("re-registered")
	if got := w.m.MatchPrefix(1, 2*bs); got != 2*bs {
		t.Fatalf("match after re-registration = %d, want %d", got, 2*bs)
	}
	if s := w.m.seqs[1]; s.registered != 2 {
		t.Fatalf("watermark = %d after publishing both own blocks, want 2", s.registered)
	}
	w.free(2)
	if got := w.attach(3, 1, 2*bs); got != 2*bs {
		t.Fatalf("attach = %d", got)
	}
	w.check("attached")
}

// TestChainDroppedWithLastEntry: a group whose cached blocks have all been
// evicted leaves nothing behind.
func TestChainDroppedWithLastEntry(t *testing.T) {
	m := New(4*16, 16)
	if err := m.Allocate(1, 32); err != nil {
		t.Fatal(err)
	}
	m.RegisterPrefix(1, 3, 32)
	m.Free(1)
	if len(m.chains) != 1 {
		t.Fatalf("%d chains, want 1", len(m.chains))
	}
	if err := m.Allocate(2, 64); err != nil { // evicts both
		t.Fatal(err)
	}
	if len(m.chains) != 0 || m.CachedBlocks() != 0 {
		t.Fatalf("%d chains / %d cached blocks after evicting the whole group", len(m.chains), m.CachedBlocks())
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestRecycledSeqsBounded: a burst of releases keeps at most
// maxRecycledSeqs structs, and a recycled struct starts clean.
func TestRecycledSeqsBounded(t *testing.T) {
	n := 4 * maxRecycledSeqs
	m := New(int64(n)*16, 16)
	for id := SeqID(0); id < SeqID(n); id++ {
		if err := m.Allocate(id, 16); err != nil {
			t.Fatal(err)
		}
		m.RegisterPrefix(id, 1+int64(id), 16)
	}
	for id := SeqID(0); id < SeqID(n); id++ {
		m.Free(id)
	}
	if len(m.recycled) != maxRecycledSeqs {
		t.Fatalf("%d recycled structs, want %d", len(m.recycled), maxRecycledSeqs)
	}
	for _, s := range m.recycled {
		if s.tokens != 0 || len(s.blocks) != 0 || s.registered != 0 || s.regGroup != 0 {
			t.Fatalf("recycled struct not reset: %+v", *s)
		}
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// Steady-state bookkeeping must not allocate: these are the per-request
// and per-token operations of the serving driver.
func TestSteadyStateAllocationFree(t *testing.T) {
	const bs, seqTokens = 16, 512
	m := New(1<<14*bs, bs)
	cycle := func() {
		if err := m.Allocate(1, seqTokens); err != nil {
			t.Fatal(err)
		}
		m.Free(1)
	}
	cycle()
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Errorf("Allocate/Free: %v allocs per cycle, want 0", got)
	}

	if err := m.Allocate(2, seqTokens); err != nil {
		t.Fatal(err)
	}
	m.RegisterPrefix(2, 7, seqTokens)
	m.Free(2)
	attach := func() {
		if m.AttachPrefix(1, 7, seqTokens) != seqTokens {
			t.Fatal("prefix not attached")
		}
		m.Free(1)
	}
	attach()
	if got := testing.AllocsPerRun(200, attach); got != 0 {
		t.Errorf("AttachPrefix/Free: %v allocs per cycle, want 0", got)
	}
}

package kvcache

import (
	"fmt"
	"testing"
)

// FuzzKVAllocFree drives random Allocate / Free / RegisterPrefix /
// AttachPrefix / query sequences against both the manager and the
// map-based oracle (oracle_test.go) over a 32-block cache, small enough
// that three reused prefix groups keep it saturated and evicting. Each
// byte pair is one operation: the first byte selects op and sequence, the
// second sizes it; half the growth goes through TryAppend and a per-SeqID
// Handle that is never cleared. After every op both implementations must
// Verify and agree on every page table, TokensOf, FreeBlocks, CachedBlocks,
// Evictions, PrefixHits and MatchPrefix of every group (twin.check), and
// CanAllocate's verdict must agree with Allocate's (or TryAppend's) outcome.
func FuzzKVAllocFree(f *testing.F) {
	f.Add([]byte("A2B3A5C1D4"))                 // two seqs allocated, queried, grown
	f.Add([]byte("A9E0B9F0A1B1"))               // alloc/free churn on both seqs
	f.Add([]byte("AZAZAZAZBZBZ"))               // drive the cache to exhaustion
	f.Add([]byte("IzJzK0L0E1F1I1"))             // exhaustion then free then re-alloc
	f.Add([]byte{0x00, 0xff, 0x80, 0x10, 0x41}) // non-ASCII ops + trailing odd byte
	// Register a prefix, release it, attach it twice, evict under a big
	// allocation, re-register.
	f.Add([]byte{0x00, 0x0f, 0x04, 0x00, 0x01, 0x00, 0x0d, 0x03, 0x15, 0x03, 0x1e, 0x1f, 0x0c, 0x00, 0x17, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			capTokens = 256
			blockSize = 8
		)
		w := newTwin(t, capTokens, blockSize, 1, 2, 3)
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := int(data[i]), int(data[i+1])
			id := SeqID(op / 8 % 6)
			group := int64(1 + arg%3)
			switch op % 8 {
			case 0: // grow by 1..16 tokens, by ID
				w.allocate(id, 1+arg%(2*blockSize))
			case 3: // and through the handle (two opcodes: growth twice as likely)
				w.append(id, 1+arg%(2*blockSize))
			case 6: // a whole prompt: 1..32 blocks, enough to force eviction
				w.grow(arg/32, id, blockSize*(1+arg%32))
			case 1, 7: // free (absent sequences must be a no-op)
				w.free(id)
			case 2: // pure queries must not disturb state
				n := 1 + arg%(2*blockSize)
				_ = w.m.CanAllocate(id, n)
				if need := w.m.BlocksNeeded(id, n); need < 0 || need > w.m.blocksFor(n)+1 {
					t.Fatalf("op %d: BlocksNeeded(%d,%d) = %d", i, id, n, need)
				}
				_ = w.m.MatchPrefix(group, arg)
			case 4: // publish: everything resident, or an arbitrary cut
				upTo := w.m.TokensOf(id)
				if arg/3%2 == 1 {
					upTo = blockSize * (arg / 6 % 8)
				}
				w.register(id, group, upTo)
			case 5: // attach to a fresh sequence (non-fresh panics by contract)
				if w.m.TokensOf(id) == 0 {
					w.attach(id, group, blockSize*(1+arg/3%16))
				}
			}
			w.check(fmt.Sprintf("op %d", i))
			if used, total := w.m.UsedBlocks(), w.m.TotalBlocks(); used < 0 || used > total {
				t.Fatalf("op %d: used blocks %d outside [0,%d]", i, used, total)
			}
		}
	})
}

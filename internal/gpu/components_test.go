package gpu

import (
	"math"
	"testing"
	"time"

	"gllm/internal/model"
	"gllm/internal/stats"
)

// randShape synthesizes an arbitrary mixed batch: prefill chunks at random
// offsets plus decode tokens over random contexts.
func randShape(rng *stats.RNG) BatchShape {
	var b BatchShape
	if rng.Intn(4) > 0 {
		chunk := 1 + rng.Intn(4096)
		b.PrefillTokens = chunk
		b.PrefillCtxSum = PrefillChunkCtxSum(rng.Intn(8192), chunk)
	}
	if rng.Intn(4) > 0 {
		b.DecodeTokens = 1 + rng.Intn(512)
		b.DecodeCtxSum = float64(b.DecodeTokens) * float64(1+rng.Intn(30000))
	}
	return b
}

// The tentpole equivalence: across the full model catalog, every GPU and
// randomized batch shapes, the aggregate layer cost must be the EXACT sum
// of its attention and MLP components — FLOPs and bytes alike.
func TestComponentSumsExactAcrossCatalog(t *testing.T) {
	rng := stats.NewRNG(7)
	for _, m := range model.Catalog() {
		for _, g := range Catalog() {
			cm := NewCostModel(m, g)
			for i := 0; i < 200; i++ {
				b := randShape(rng)
				if flops := cm.AttnFLOPs(b) + cm.MLPFLOPs(b); flops != cm.LayerFLOPs(b) {
					t.Fatalf("%s/%s %+v: AttnFLOPs+MLPFLOPs = %g != LayerFLOPs %g",
						m.Name, g.Name, b, flops, cm.LayerFLOPs(b))
				}
				if bytes := cm.AttnBytes(b) + cm.MLPBytes(b); bytes != cm.LayerBytes(b) {
					t.Fatalf("%s/%s %+v: AttnBytes+MLPBytes = %g != LayerBytes %g",
						m.Name, g.Name, b, bytes, cm.LayerBytes(b))
				}
			}
		}
	}
}

// The decomposition must not move the aggregate numbers: LayerFLOPs and
// LayerBytes still equal the original single-roofline formulas bit for bit
// on dense models (the ones in every golden CSV), and within float noise
// under MoE (where the expert-streaming term reassociates).
func TestAggregatesMatchLegacyFormulas(t *testing.T) {
	rng := stats.NewRNG(8)
	for _, m := range model.Catalog() {
		cm := NewCostModel(m, L20)
		for i := 0; i < 200; i++ {
			b := randShape(rng)
			legacyFLOPs := m.LinearFLOPsPerTokenPerLayer()*float64(b.Tokens()) +
				4*float64(m.NumHeads)*float64(m.HeadDim)*(b.PrefillCtxSum+b.DecodeCtxSum)
			if got := cm.LayerFLOPs(b); got != legacyFLOPs {
				t.Fatalf("%s %+v: LayerFLOPs %g != legacy %g", m.Name, b, got, legacyFLOPs)
			}
			kvPerTok := float64(m.KVBytesPerTokenPerLayer())
			legacyBytes := cm.streamedWeightBytes(b.Tokens()) +
				kvPerTok*(b.PrefillCtxSum+b.DecodeCtxSum) +
				kvPerTok*float64(b.Tokens()) +
				cm.ActivationRWFactor*float64(m.ActivationBytesPerToken())*float64(b.Tokens())
			got := cm.LayerBytes(b)
			if m.IsMoE() {
				if legacyBytes != 0 && math.Abs(got-legacyBytes)/legacyBytes > 1e-12 {
					t.Fatalf("%s %+v: LayerBytes %g vs legacy %g", m.Name, b, got, legacyBytes)
				}
			} else if got != legacyBytes {
				t.Fatalf("%s %+v: LayerBytes %g != legacy %g", m.Name, b, got, legacyBytes)
			}
		}
	}
}

// Satellite regression: grouped-query attention has only NumKVHeads KV
// heads, so tensor parallelism past that degree replicates KV and per-rank
// KV traffic stops shrinking. The naive everything/tp division understated
// over-sharded decode time.
func TestTensorParallelKVShardClampedByKVHeads(t *testing.T) {
	cm := NewCostModel(model.Qwen25_14B, A100_40G) // 8 KV heads
	b := BatchShape{DecodeTokens: 128, DecodeCtxSum: 128 * 8192}

	naive := func(tp int) time.Duration {
		compute := cm.LayerFLOPs(b) / float64(tp) / (cm.GPU.PeakFLOPS * cm.MFUMax)
		mem := cm.LayerBytes(b) / float64(tp) / (cm.GPU.MemBandwidth * cm.BandwidthEff)
		t := compute
		if mem > t {
			t = mem
		}
		return time.Duration(t*float64(time.Second)) + cm.GPU.KernelOverhead
	}
	// At or below the KV head count the old formula holds exactly.
	for _, tp := range []int{1, 2, 4, 8} {
		if got := cm.TensorParallelLayerTime(b, tp); got != naive(tp) {
			t.Fatalf("tp=%d: %v != legacy %v", tp, got, naive(tp))
		}
	}
	// Past it, the clamped model must price the replicated KV reads above
	// the naive division.
	t16 := cm.TensorParallelLayerTime(b, 16)
	if t16 <= naive(16) {
		t.Fatalf("tp=16 over-sharded decode %v not above naive %v", t16, naive(16))
	}
	// But extra ranks still help the non-KV terms: no slower than tp=8.
	if t8 := cm.TensorParallelLayerTime(b, 8); t16 > t8 {
		t.Fatalf("tp=16 (%v) slower than tp=8 (%v)", t16, t8)
	}
}

// Token-parallel pricing: the root prices weights and projections but no
// KV, peers price only their KV partition's attention I/O.
func TestTokenParallelComponentPricing(t *testing.T) {
	cm := NewCostModel(model.Qwen25_14B, A100_40G)
	short := BatchShape{DecodeTokens: 64, DecodeCtxSum: 64 * 512}
	long := BatchShape{DecodeTokens: 64, DecodeCtxSum: 64 * 16384}

	// Root time is context-independent: it never touches the KV cache.
	if r1, r2 := cm.TokenParallelRootLayerTime(short, 2), cm.TokenParallelRootLayerTime(long, 2); r1 != r2 {
		t.Fatalf("root time depends on context: %v vs %v", r1, r2)
	}
	// Peer time grows with context and shrinks with the group size.
	if p1, p2 := cm.TokenParallelPeerLayerTime(short, 8), cm.TokenParallelPeerLayerTime(long, 8); p2 <= p1 {
		t.Fatalf("peer time not growing with context: %v vs %v", p1, p2)
	}
	if g8, g16 := cm.TokenParallelPeerLayerTime(long, 8), cm.TokenParallelPeerLayerTime(long, 16); g16 >= g8 {
		t.Fatalf("peer time not shrinking with group size: %v vs %v", g8, g16)
	}
	// A wider root group is faster.
	big := BatchShape{PrefillTokens: 2048, PrefillCtxSum: PrefillChunkCtxSum(0, 2048)}
	if r1, r4 := cm.TokenParallelRootLayerTime(big, 1), cm.TokenParallelRootLayerTime(big, 4); r4 >= r1 {
		t.Fatalf("root TP not speeding up prefill: %v vs %v", r1, r4)
	}
	if cm.TokenParallelRootLayerTime(BatchShape{}, 2) != 0 || cm.TokenParallelPeerLayerTime(BatchShape{}, 4) != 0 {
		t.Fatal("empty batch not free")
	}
}

// TKNP capacity: every rank contributes its non-weight memory to the KV
// pool, so a 16-rank TKNP group out-holds over-sharded TP-16 (whose KV
// residency is stuck at the 8-way KV-head split).
func TestKVCapacityTokensTKNP(t *testing.T) {
	cm := NewCostModel(model.Qwen25_14B, A100_40G)
	tknp := cm.KVCapacityTokensTKNP(16, 4, 0.9)
	tp := cm.KVCapacityTokensTP(16, 0.9)
	if tknp <= tp {
		t.Fatalf("TKNP capacity %d not above over-sharded TP-16 capacity %d", tknp, tp)
	}
	// More peers, more KV.
	if c8, c16 := cm.KVCapacityTokensTKNP(8, 4, 0.9), cm.KVCapacityTokensTKNP(16, 4, 0.9); c16 <= c8 {
		t.Fatalf("capacity not growing with group size: %d vs %d", c8, c16)
	}
	// A single rank that cannot hold the weights holds no KV either.
	tiny := NewCostModel(model.Llama31_100B, L20)
	if got := tiny.KVCapacityTokensTKNP(1, 1, 0.9); got != 0 {
		t.Fatalf("100B on one L20: capacity %d, want 0", got)
	}
	for _, fn := range []func(){
		func() { cm.KVCapacityTokensTKNP(0, 1, 0.9) },
		func() { cm.KVCapacityTokensTKNP(4, 5, 0.9) },
		func() { cm.KVCapacityTokensTKNP(4, 0, 0.9) },
		func() { cm.KVCapacityTokensTKNP(4, 2, 0) },
		func() { cm.TokenParallelRootLayerTime(BatchShape{DecodeTokens: 1}, 0) },
		func() { cm.TokenParallelPeerLayerTime(BatchShape{DecodeTokens: 1}, 0) },
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

// The KV-traffic accessor used by the TKNP peer roofline must cover reads
// over the attended context plus one write per new token.
func TestKVBytesAccounting(t *testing.T) {
	cm := testCM()
	b := BatchShape{PrefillTokens: 100, PrefillCtxSum: PrefillChunkCtxSum(0, 100), DecodeTokens: 4, DecodeCtxSum: 4 * 50}
	perTok := float64(cm.Model.KVBytesPerTokenPerLayer())
	want := perTok*(b.PrefillCtxSum+b.DecodeCtxSum) + perTok*float64(b.Tokens())
	if got := cm.KVBytes(b); got != want {
		t.Fatalf("KVBytes = %g, want %g", got, want)
	}
}

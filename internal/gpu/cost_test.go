package gpu

import (
	"testing"
	"testing/quick"
	"time"

	"gllm/internal/model"
)

func TestCatalogValidates(t *testing.T) {
	for _, s := range Catalog() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("A100-40GB")
	if err != nil {
		t.Fatal(err)
	}
	if s.MemoryBytes != 40<<30 {
		t.Fatalf("A100 memory = %d", s.MemoryBytes)
	}
	if _, err := ByName("H900"); err == nil {
		t.Fatal("unknown GPU did not error")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Name: "noflops", MemBandwidth: 1, MemoryBytes: 1},
		{Name: "nobw", PeakFLOPS: 1, MemoryBytes: 1},
		{Name: "nomem", PeakFLOPS: 1, MemBandwidth: 1},
		{Name: "negk", PeakFLOPS: 1, MemBandwidth: 1, MemoryBytes: 1, KernelOverhead: -1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s validated", s.Name)
		}
	}
}

func testCM() CostModel { return NewCostModel(model.Qwen25_32B, L20) }

func TestEmptyBatchCostsZero(t *testing.T) {
	cm := testCM()
	if got := cm.LayerTime(BatchShape{}); got != 0 {
		t.Fatalf("empty layer time = %v", got)
	}
	if got := cm.StageTime(BatchShape{}, 16); got != 0 {
		t.Fatalf("empty stage time = %v", got)
	}
}

// computeBound reports whether the batch is compute-limited (rather than
// bandwidth-limited) on the aggregate layer roofline.
func computeBound(cm CostModel, b BatchShape) bool {
	compute := cm.LayerFLOPs(b) / (cm.GPU.PeakFLOPS * cm.MFUMax)
	mem := cm.LayerBytes(b) / (cm.GPU.MemBandwidth * cm.BandwidthEff)
	return compute >= mem
}

func TestPrefillIsComputeBound(t *testing.T) {
	cm := testCM()
	b := BatchShape{PrefillTokens: 2048, PrefillCtxSum: PrefillChunkCtxSum(0, 2048)}
	if !computeBound(cm, b) {
		t.Fatal("large prefill batch should be compute-bound")
	}
}

func TestSmallDecodeIsMemoryBound(t *testing.T) {
	cm := testCM()
	// A handful of decode tokens over long contexts: weight streaming and
	// KV reads dominate.
	b := BatchShape{DecodeTokens: 8, DecodeCtxSum: 8 * 2000}
	if computeBound(cm, b) {
		t.Fatal("small decode batch should be memory-bound")
	}
}

func TestStageTimeScalesWithLayers(t *testing.T) {
	cm := testCM()
	b := BatchShape{PrefillTokens: 512, PrefillCtxSum: PrefillChunkCtxSum(0, 512)}
	t8 := cm.StageTime(b, 8)
	t16 := cm.StageTime(b, 16)
	if t16 != 2*t8 {
		t.Fatalf("stage time not linear in layers: %v vs %v", t8, t16)
	}
}

func TestStageTimeMonotoneInTokens(t *testing.T) {
	cm := testCM()
	prev := time.Duration(0)
	for tokens := 64; tokens <= 4096; tokens *= 2 {
		b := BatchShape{PrefillTokens: tokens, PrefillCtxSum: PrefillChunkCtxSum(0, tokens)}
		cur := cm.StageTime(b, 16)
		if cur <= prev {
			t.Fatalf("stage time not increasing at %d tokens: %v <= %v", tokens, cur, prev)
		}
		prev = cur
	}
}

func TestForwardMagnitudeRealistic(t *testing.T) {
	// Paper §3.4: forward passes take 20-800 ms. A 2048-token prefill chunk
	// of the 32B model on one L20 stage (16 of 64 layers) must land in that
	// ballpark (wide tolerance: we check order of magnitude).
	cm := testCM()
	b := BatchShape{PrefillTokens: 2048, PrefillCtxSum: PrefillChunkCtxSum(0, 2048)}
	st := cm.StageTime(b, 16)
	if st < 100*time.Millisecond || st > 2*time.Second {
		t.Fatalf("32B/L20 2048-token stage time = %v, want O(100ms..2s)", st)
	}
}

func TestDecodeChapterCheaperThanPrefill(t *testing.T) {
	cm := testCM()
	pre := cm.StageTime(BatchShape{PrefillTokens: 2048, PrefillCtxSum: PrefillChunkCtxSum(0, 2048)}, 16)
	dec := cm.StageTime(BatchShape{DecodeTokens: 64, DecodeCtxSum: 64 * 500}, 16)
	if dec >= pre {
		t.Fatalf("decode batch (%v) not cheaper than full prefill chunk (%v)", dec, pre)
	}
}

func TestAttentionContextRaisesCost(t *testing.T) {
	cm := testCM()
	short := cm.LayerTime(BatchShape{DecodeTokens: 256, DecodeCtxSum: 256 * 100})
	long := cm.LayerTime(BatchShape{DecodeTokens: 256, DecodeCtxSum: 256 * 8000})
	if long <= short {
		t.Fatalf("longer context not more expensive: %v vs %v", long, short)
	}
}

func TestTensorParallelSpeedsUpCompute(t *testing.T) {
	cm := testCM()
	b := BatchShape{PrefillTokens: 2048, PrefillCtxSum: PrefillChunkCtxSum(0, 2048)}
	t1 := cm.TensorParallelLayerTime(b, 1)
	t4 := cm.TensorParallelLayerTime(b, 4)
	if t4 >= t1 {
		t.Fatalf("TP=4 (%v) not faster than TP=1 (%v)", t4, t1)
	}
	if t1 != cm.LayerTime(b) {
		t.Fatalf("TP=1 (%v) != plain layer time (%v)", t1, cm.LayerTime(b))
	}
}

func TestPrefillChunkCtxSum(t *testing.T) {
	// 3 tokens from offset 10: contexts 10, 11, 12 -> 33.
	if got := PrefillChunkCtxSum(10, 3); got != 33 {
		t.Fatalf("ctx sum = %v", got)
	}
	if got := PrefillChunkCtxSum(0, 1); got != 0 {
		t.Fatalf("single first token ctx = %v", got)
	}
	if got := PrefillChunkCtxSum(5, 0); got != 0 {
		t.Fatalf("empty chunk ctx = %v", got)
	}
}

func TestBatchShapeAdd(t *testing.T) {
	a := BatchShape{PrefillTokens: 10, PrefillCtxSum: 45, DecodeTokens: 2, DecodeCtxSum: 30}
	b := BatchShape{PrefillTokens: 5, DecodeTokens: 3, DecodeCtxSum: 10}
	c := a.Add(b)
	if c.PrefillTokens != 15 || c.DecodeTokens != 5 || c.PrefillCtxSum != 45 || c.DecodeCtxSum != 40 {
		t.Fatalf("Add = %+v", c)
	}
	if c.Tokens() != 20 {
		t.Fatalf("Tokens = %d", c.Tokens())
	}
}

func TestKVCapacityPPPositiveAndSane(t *testing.T) {
	cm := testCM()
	cap4 := cm.KVCapacityTokensPP(model.Qwen25_32B.StageLayers(4), 0.9)
	if cap4 <= 0 {
		t.Fatalf("KV capacity = %d", cap4)
	}
	// 32B over 4x48GB: weights 16 GB/GPU leave tens of GB; KV/token/GPU is
	// 16 layers * 4096 B = 64 KiB, so capacity should be O(100k) tokens.
	if cap4 < 100_000 || cap4 > 2_000_000 {
		t.Fatalf("KV capacity = %d tokens, want O(100k..2M)", cap4)
	}
}

func TestKVCapacityShrinksWithMemUtil(t *testing.T) {
	cm := testCM()
	layers := model.Qwen25_32B.StageLayers(4)
	hi := cm.KVCapacityTokensPP(layers, 0.9)
	lo := cm.KVCapacityTokensPP(layers, 0.5)
	if lo >= hi {
		t.Fatalf("capacity not shrinking with memUtil: %d vs %d", lo, hi)
	}
}

func TestKVCapacityZeroWhenWeightsDontFit(t *testing.T) {
	// 100B model on a single L20 stage: weights alone exceed memory.
	cm := NewCostModel(model.Llama31_100B, L20)
	if got := cm.KVCapacityTokensPP([]int{model.Llama31_100B.NumLayers}, 0.95); got != 0 {
		t.Fatalf("capacity = %d, want 0 (weights do not fit)", got)
	}
}

func TestKVCapacityTP(t *testing.T) {
	cm := testCM()
	capTP := cm.KVCapacityTokensTP(4, 0.9)
	if capTP <= 0 {
		t.Fatalf("TP capacity = %d", capTP)
	}
	capPP := cm.KVCapacityTokensPP(model.Qwen25_32B.StageLayers(4), 0.9)
	// TP and PP capacities should be the same order of magnitude.
	ratio := float64(capTP) / float64(capPP)
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("TP/PP capacity ratio = %v (TP %d, PP %d)", ratio, capTP, capPP)
	}
}

func TestCapacityPanics(t *testing.T) {
	cm := testCM()
	for _, fn := range []func(){
		func() { cm.KVCapacityTokensPP([]int{16}, 0) },
		func() { cm.KVCapacityTokensPP([]int{16}, 1.5) },
		func() { cm.KVCapacityTokensTP(0, 0.9) },
		func() { cm.KVCapacityTokensTP(4, -1) },
		func() { cm.TensorParallelLayerTime(BatchShape{DecodeTokens: 1}, 0) },
		func() { cm.StageTime(BatchShape{DecodeTokens: 1}, -1) },
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

func TestQuickLayerTimePositiveAndAdditive(t *testing.T) {
	cm := testCM()
	f := func(p, d uint16) bool {
		b := BatchShape{
			PrefillTokens: int(p % 4096),
			PrefillCtxSum: PrefillChunkCtxSum(0, int(p%4096)),
			DecodeTokens:  int(d % 1024),
			DecodeCtxSum:  float64(d%1024) * 300,
		}
		lt := cm.LayerTime(b)
		if b.Empty() {
			return lt == 0
		}
		// A merged batch is never cheaper than its decode part alone.
		decOnly := BatchShape{DecodeTokens: b.DecodeTokens, DecodeCtxSum: b.DecodeCtxSum}
		return lt > 0 && lt >= cm.LayerTime(decOnly)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFasterGPUFasterStage(t *testing.T) {
	b := BatchShape{PrefillTokens: 1024, PrefillCtxSum: PrefillChunkCtxSum(0, 1024)}
	slow, fast := NewCostModel(model.Qwen25_14B, L20), NewCostModel(model.Qwen25_14B, A100_40G)
	l20, a100 := slow.StageTime(b, 12), fast.StageTime(b, 12)
	if a100 >= l20 {
		t.Fatalf("A100 (%v) not faster than L20 (%v)", a100, l20)
	}
}

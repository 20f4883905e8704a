package gpu

import (
	"math"
	"testing"

	"gllm/internal/model"
)

func moeCM() CostModel { return NewCostModel(model.Mixtral8x7B, L20) }

func TestMixtralParamCounts(t *testing.T) {
	m := model.Mixtral8x7B
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	total := float64(m.TotalParams()) / 1e9
	if total < 44 || total > 50 {
		t.Fatalf("Mixtral total params = %.1fB, want ~47B", total)
	}
	active := float64(int64(m.NumLayers)*m.ActiveParamsPerTokenPerLayer()+m.EmbeddingParams()) / 1e9
	if active < 11 || active > 15 {
		t.Fatalf("Mixtral active params = %.1fB, want ~13B", active)
	}
}

func TestDenseModelActiveEqualsTotal(t *testing.T) {
	m := model.Qwen25_14B
	if m.ActiveParamsPerTokenPerLayer() != m.ParamsPerLayer() {
		t.Fatal("dense active params != layer params")
	}
	if m.IsMoE() {
		t.Fatal("dense model claims MoE")
	}
}

func TestMoEValidation(t *testing.T) {
	bad := model.Mixtral8x7B
	bad.TopK = 9
	if err := bad.Validate(); err == nil {
		t.Fatal("TopK > experts validated")
	}
	bad = model.Mixtral8x7B
	bad.TopK = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("MoE without TopK validated")
	}
	bad = model.Qwen25_14B
	bad.TopK = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("dense model with TopK validated")
	}
}

func TestActivatedExpertsCurve(t *testing.T) {
	cm := moeCM()
	if got := cm.ActivatedExperts(0); got != 0 {
		t.Fatalf("0 tokens activate %v experts", got)
	}
	one := cm.ActivatedExperts(1)
	// One token activates exactly TopK experts in expectation.
	if math.Abs(one-2) > 1e-9 {
		t.Fatalf("1 token activates %v experts, want 2", one)
	}
	// Monotone, saturating at NumExperts.
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 16, 64, 512} {
		a := cm.ActivatedExperts(n)
		if a < prev {
			t.Fatalf("activation not monotone at %d tokens", n)
		}
		if a > 8 {
			t.Fatalf("activated %v > 8 experts", a)
		}
		prev = a
	}
	if big := cm.ActivatedExperts(4096); big < 7.999 {
		t.Fatalf("large batch activates only %v experts", big)
	}
	// Dense models never report expert activation.
	dense := NewCostModel(model.Qwen25_14B, L20)
	if got := dense.ActivatedExperts(100); got != 0 {
		t.Fatalf("dense activation = %v", got)
	}
}

func TestMoEDecodeStaysMemoryBoundLonger(t *testing.T) {
	// The MoE pathology the paper's §6 flags: a small decode batch still
	// streams most experts' weights, so per-token decode cost is far worse
	// than the active-parameter count suggests. Compare the batch size at
	// which decode becomes compute-bound on Mixtral vs a dense model with
	// similar ACTIVE compute (Qwen 14B is close to Mixtral's 13B active).
	crossover := func(cm CostModel) int {
		for b := 1; b <= 1<<14; b *= 2 {
			if computeBound(cm, BatchShape{DecodeTokens: b, DecodeCtxSum: float64(b) * 500}) {
				return b
			}
		}
		return 1 << 15
	}
	dense := crossover(NewCostModel(model.Qwen25_14B, L20))
	moe := crossover(moeCM())
	if moe <= dense {
		t.Fatalf("MoE crossover %d <= dense %d — expert streaming not modeled", moe, dense)
	}
}

func TestMoELargeBatchStreamsAllExperts(t *testing.T) {
	cm := moeCM()
	m := model.Mixtral8x7B
	full := float64(m.WeightBytesPerLayer())
	got := cm.streamedWeightBytes(1 << 20)
	if math.Abs(got-full)/full > 0.01 {
		t.Fatalf("huge batch streams %.2e bytes, want ~%.2e (all experts)", got, full)
	}
	small := cm.streamedWeightBytes(1)
	if small >= got {
		t.Fatal("single token streams as much as a huge batch")
	}
	// But a single token still streams 2 experts + attention: much more
	// than 2/8 of nothing.
	min := float64((m.AttnParamsPerLayer() + 2*m.ExpertParams()) * int64(m.DTypeBytes))
	if small < min {
		t.Fatalf("single token streams %.2e < attention+2 experts %.2e", small, min)
	}
}

func TestMoEKVCapacityAccountsTotalWeights(t *testing.T) {
	// MoE weights (ALL experts) must fit in memory even though compute only
	// touches TopK: capacity accounting uses total parameters.
	cm := moeCM()
	// Mixtral 47B bf16 = ~94GB; a single 48GB L20 cannot hold it.
	if got := cm.KVCapacityTokensPP([]int{32}, 0.95); got != 0 {
		t.Fatalf("Mixtral on one L20 reports capacity %d", got)
	}
	// Across 4 stages (~23.5GB/stage) it fits with room for KV.
	if got := cm.KVCapacityTokensPP(model.Mixtral8x7B.StageLayers(4), 0.9); got <= 0 {
		t.Fatalf("Mixtral on 4xL20 capacity = %d", got)
	}
}

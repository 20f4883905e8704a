package model

import (
	"testing"
	"testing/quick"
)

func TestCatalogValidates(t *testing.T) {
	for _, c := range Catalog() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestTotalParamsMatchNominalSizes(t *testing.T) {
	cases := []struct {
		cfg  Config
		minB float64
		maxB float64
	}{
		{Qwen25_14B, 13.0, 16.0},
		{Qwen25_32B, 30.0, 34.5},
		{Llama31_100B, 92.0, 108.0},
	}
	for _, tc := range cases {
		got := float64(tc.cfg.TotalParams()) / 1e9
		if got < tc.minB || got > tc.maxB {
			t.Errorf("%s: %.2fB params, want in [%.1f, %.1f]", tc.cfg.Name, got, tc.minB, tc.maxB)
		}
	}
}

func TestKVBytesPerToken(t *testing.T) {
	// Qwen2.5 GQA: 2 * 8 kv-heads * 128 dim * 2 bytes = 4096 B per layer.
	if got := Qwen25_32B.KVBytesPerTokenPerLayer(); got != 4096 {
		t.Fatalf("KV bytes/token/layer = %d, want 4096", got)
	}
	if got := Qwen25_32B.KVBytesPerToken(); got != 4096*64 {
		t.Fatalf("KV bytes/token = %d", got)
	}
}

func TestActivationBytes(t *testing.T) {
	if got := Qwen25_14B.ActivationBytesPerToken(); got != 5120*2 {
		t.Fatalf("activation bytes = %d", got)
	}
}

func TestStageLayersEvenSplit(t *testing.T) {
	got := Qwen25_32B.StageLayers(4)
	if len(got) != 4 {
		t.Fatalf("stages = %v", got)
	}
	for _, n := range got {
		if n != 16 {
			t.Fatalf("uneven split of 64 layers over 4: %v", got)
		}
	}
}

func TestStageLayersRemainder(t *testing.T) {
	got := Llama31_100B.StageLayers(4) // 30 layers over 4 stages
	sum := 0
	for _, n := range got {
		sum += n
	}
	if sum != 30 {
		t.Fatalf("layers lost in split: %v", got)
	}
	if got[0] != 8 || got[3] != 7 {
		t.Fatalf("remainder distribution = %v", got)
	}
}

func TestStageLayersPanics(t *testing.T) {
	for _, depth := range []int{0, -1, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("StageLayers(%d) did not panic", depth)
				}
			}()
			Qwen25_14B.StageLayers(depth)
		}()
	}
}

func TestByName(t *testing.T) {
	c, err := ByName("Qwen2.5-32B")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumLayers != 64 {
		t.Fatalf("layers = %d", c.NumLayers)
	}
	if _, err := ByName("GPT-9"); err == nil {
		t.Fatal("unknown model did not error")
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	bad := []Config{
		{Name: "l0", HiddenSize: 1, NumHeads: 1, NumKVHeads: 1, HeadDim: 1, IntermediateSize: 1, VocabSize: 1, DTypeBytes: 2},
		{Name: "gqa", NumLayers: 1, HiddenSize: 1, NumHeads: 3, NumKVHeads: 2, HeadDim: 1, IntermediateSize: 1, VocabSize: 1, DTypeBytes: 2},
		{Name: "vocab", NumLayers: 1, HiddenSize: 1, NumHeads: 2, NumKVHeads: 2, HeadDim: 1, IntermediateSize: 1, DTypeBytes: 2},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %s validated but should not", c.Name)
		}
	}
}

func TestLinearFLOPsAreTwicePerParam(t *testing.T) {
	c := Qwen25_32B
	if got, want := c.LinearFLOPsPerTokenPerLayer(), 2*float64(c.ParamsPerLayer()); got != want {
		t.Fatalf("linear FLOPs = %v, want %v", got, want)
	}
}

func TestBiggerModelCostsMore(t *testing.T) {
	if Qwen25_32B.TotalParams() <= Qwen25_14B.TotalParams() {
		t.Fatal("32B not bigger than 14B")
	}
	if Llama31_100B.TotalParams() <= Qwen25_32B.TotalParams() {
		t.Fatal("100B not bigger than 32B")
	}
}

func TestQuickStageLayersConserveTotal(t *testing.T) {
	f := func(depthRaw uint8) bool {
		c := Qwen25_14B
		depth := int(depthRaw)%c.NumLayers + 1
		parts := c.StageLayers(depth)
		sum := 0
		minPart, maxPart := parts[0], parts[0]
		for _, p := range parts {
			sum += p
			if p < minPart {
				minPart = p
			}
			if p > maxPart {
				maxPart = p
			}
		}
		return sum == c.NumLayers && maxPart-minPart <= 1 && minPart >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringContainsName(t *testing.T) {
	s := Qwen25_14B.String()
	if s == "" || s[0] != 'Q' {
		t.Fatalf("String() = %q", s)
	}
}

func TestMoEParamHelpers(t *testing.T) {
	m := Mixtral8x7B
	if m.RouterParams() != int64(m.HiddenSize*m.NumExperts) {
		t.Fatalf("router params = %d", m.RouterParams())
	}
	if Qwen25_14B.RouterParams() != 0 {
		t.Fatal("dense model has router params")
	}
	wantMLP := int64(m.NumExperts)*m.ExpertParams() + m.RouterParams()
	if m.MLPParamsPerLayer() != wantMLP {
		t.Fatalf("MoE MLP params = %d, want %d", m.MLPParamsPerLayer(), wantMLP)
	}
	wantActive := m.AttnParamsPerLayer() + int64(m.TopK)*m.ExpertParams() + m.RouterParams()
	if m.ActiveParamsPerTokenPerLayer() != wantActive {
		t.Fatalf("active params = %d, want %d", m.ActiveParamsPerTokenPerLayer(), wantActive)
	}
	if m.WeightBytesPerLayer() != m.ParamsPerLayer()*int64(m.DTypeBytes) {
		t.Fatal("weight bytes inconsistent")
	}
}

func TestValidateMoreBadConfigs(t *testing.T) {
	base := Qwen25_14B
	cases := []func(Config) Config{
		func(c Config) Config { c.HiddenSize = 0; return c },
		func(c Config) Config { c.HeadDim = 0; return c },
		func(c Config) Config { c.IntermediateSize = 0; return c },
		func(c Config) Config { c.DTypeBytes = 0; return c },
		func(c Config) Config { c.NumExperts = -1; return c },
		func(c Config) Config { c.NumKVHeads = 0; return c },
	}
	for i, mutate := range cases {
		c := mutate(base)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

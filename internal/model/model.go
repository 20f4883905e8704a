// Package model describes decoder-only transformer architectures at the
// level the serving system needs: parameter counts, per-layer weight bytes,
// KV-cache bytes per token, and FLOP counts. It ships configurations for
// the three models the gLLM paper evaluates (Qwen2.5-14B, Qwen2.5-32B and
// the down-scaled Llama3.1-100B).
package model

import "fmt"

// Config is a decoder-only transformer architecture description.
// All byte figures are computed from DTypeBytes (2 for bf16, the paper's
// setting).
type Config struct {
	Name             string
	NumLayers        int
	HiddenSize       int
	NumHeads         int // query heads
	NumKVHeads       int // grouped-query KV heads
	HeadDim          int
	IntermediateSize int // FFN inner width (SwiGLU: gate+up+down)
	VocabSize        int
	DTypeBytes       int

	// Mixture-of-experts extension (the paper's §6 future work). With
	// NumExperts > 0, each layer's FFN is NumExperts expert FFNs of
	// IntermediateSize plus a router; every token activates TopK of them.
	// Zero NumExperts means a dense model.
	NumExperts int
	TopK       int
}

// IsMoE reports whether the model uses mixture-of-experts FFNs.
func (c *Config) IsMoE() bool { return c.NumExperts > 0 }

// Validate reports a descriptive error for inconsistent configurations.
func (c *Config) Validate() error {
	switch {
	case c.NumLayers <= 0:
		return fmt.Errorf("model %s: NumLayers = %d", c.Name, c.NumLayers)
	case c.HiddenSize <= 0:
		return fmt.Errorf("model %s: HiddenSize = %d", c.Name, c.HiddenSize)
	case c.NumHeads <= 0 || c.NumKVHeads <= 0:
		return fmt.Errorf("model %s: head counts %d/%d", c.Name, c.NumHeads, c.NumKVHeads)
	case c.NumHeads%c.NumKVHeads != 0:
		return fmt.Errorf("model %s: NumHeads %d not divisible by NumKVHeads %d", c.Name, c.NumHeads, c.NumKVHeads)
	case c.HeadDim <= 0:
		return fmt.Errorf("model %s: HeadDim = %d", c.Name, c.HeadDim)
	case c.IntermediateSize <= 0:
		return fmt.Errorf("model %s: IntermediateSize = %d", c.Name, c.IntermediateSize)
	case c.VocabSize <= 0:
		return fmt.Errorf("model %s: VocabSize = %d", c.Name, c.VocabSize)
	case c.DTypeBytes <= 0:
		return fmt.Errorf("model %s: DTypeBytes = %d", c.Name, c.DTypeBytes)
	case c.NumExperts < 0:
		return fmt.Errorf("model %s: NumExperts = %d", c.Name, c.NumExperts)
	case c.NumExperts > 0 && (c.TopK < 1 || c.TopK > c.NumExperts):
		return fmt.Errorf("model %s: TopK %d out of [1,%d]", c.Name, c.TopK, c.NumExperts)
	case c.NumExperts == 0 && c.TopK != 0:
		return fmt.Errorf("model %s: TopK %d on a dense model", c.Name, c.TopK)
	}
	return nil
}

// AttnParamsPerLayer counts attention projection parameters of one layer
// (Q, K, V and output projections under grouped-query attention).
func (c *Config) AttnParamsPerLayer() int64 {
	h := int64(c.HiddenSize)
	q := h * int64(c.NumHeads*c.HeadDim)
	kv := 2 * h * int64(c.NumKVHeads*c.HeadDim)
	o := int64(c.NumHeads*c.HeadDim) * h
	return q + kv + o
}

// ExpertParams counts one expert FFN's parameters (gate, up and down
// projections; for dense models, the single FFN).
func (c *Config) ExpertParams() int64 {
	return 3 * int64(c.HiddenSize) * int64(c.IntermediateSize)
}

// RouterParams counts the MoE router (0 for dense models).
func (c *Config) RouterParams() int64 {
	if !c.IsMoE() {
		return 0
	}
	return int64(c.HiddenSize) * int64(c.NumExperts)
}

// MLPParamsPerLayer counts all FFN parameters of one layer: one FFN for
// dense models, every expert plus the router for MoE.
func (c *Config) MLPParamsPerLayer() int64 {
	if !c.IsMoE() {
		return c.ExpertParams()
	}
	return int64(c.NumExperts)*c.ExpertParams() + c.RouterParams()
}

// ParamsPerLayer counts all parameters of one decoder layer (total,
// i.e. memory footprint; see ActiveParamsPerToken for compute).
func (c *Config) ParamsPerLayer() int64 {
	return c.AttnParamsPerLayer() + c.MLPParamsPerLayer()
}

// ActiveMLPParamsPerTokenPerLayer counts the FFN parameters one token's
// forward pass touches in one layer: the whole FFN for dense models, TopK
// experts plus the router under MoE.
func (c *Config) ActiveMLPParamsPerTokenPerLayer() int64 {
	if !c.IsMoE() {
		return c.ExpertParams()
	}
	return int64(c.TopK)*c.ExpertParams() + c.RouterParams()
}

// ActiveParamsPerTokenPerLayer counts the parameters one token's forward
// pass touches in one layer: everything for dense models, but only TopK
// experts (plus attention and the router) under MoE.
func (c *Config) ActiveParamsPerTokenPerLayer() int64 {
	return c.AttnParamsPerLayer() + c.ActiveMLPParamsPerTokenPerLayer()
}

// EmbeddingParams counts the input embedding plus the LM head.
func (c *Config) EmbeddingParams() int64 {
	return 2 * int64(c.VocabSize) * int64(c.HiddenSize)
}

// TotalParams counts all model parameters.
func (c *Config) TotalParams() int64 {
	return int64(c.NumLayers)*c.ParamsPerLayer() + c.EmbeddingParams()
}

// AttnWeightBytesPerLayer returns the bytes of one layer's attention
// projection weights (Q, K, V, O).
func (c *Config) AttnWeightBytesPerLayer() int64 {
	return c.AttnParamsPerLayer() * int64(c.DTypeBytes)
}

// MLPWeightBytesPerLayer returns the bytes of one layer's FFN weights
// (all experts plus the router under MoE).
func (c *Config) MLPWeightBytesPerLayer() int64 {
	return c.MLPParamsPerLayer() * int64(c.DTypeBytes)
}

// WeightBytesPerLayer returns the bytes of one decoder layer's weights.
func (c *Config) WeightBytesPerLayer() int64 {
	return c.AttnWeightBytesPerLayer() + c.MLPWeightBytesPerLayer()
}

// KVBytesPerTokenPerLayer returns the KV-cache bytes one token occupies in
// one layer (key + value across KV heads).
func (c *Config) KVBytesPerTokenPerLayer() int64 {
	return 2 * int64(c.NumKVHeads) * int64(c.HeadDim) * int64(c.DTypeBytes)
}

// KVBytesPerToken returns the KV-cache bytes one token occupies across all
// layers of the full model.
func (c *Config) KVBytesPerToken() int64 {
	return int64(c.NumLayers) * c.KVBytesPerTokenPerLayer()
}

// ActivationBytesPerToken returns the inter-stage activation footprint of a
// single token (the hidden state passed between pipeline stages).
func (c *Config) ActivationBytesPerToken() int64 {
	return int64(c.HiddenSize) * int64(c.DTypeBytes)
}

// AttnLinearFLOPsPerTokenPerLayer returns the attention projection FLOPs
// (QKV + output) one token costs in one layer: 2 FLOPs per parameter.
func (c *Config) AttnLinearFLOPsPerTokenPerLayer() float64 {
	return 2 * float64(c.AttnParamsPerLayer())
}

// MLPLinearFLOPsPerTokenPerLayer returns the FFN FLOPs one token costs in
// one layer: 2 FLOPs per active parameter (TopK experts + router for MoE).
func (c *Config) MLPLinearFLOPsPerTokenPerLayer() float64 {
	return 2 * float64(c.ActiveMLPParamsPerTokenPerLayer())
}

// LinearFLOPsPerTokenPerLayer returns the projection FLOPs one token costs
// in one layer: 2 FLOPs per parameter visited (active parameters only —
// MoE tokens compute through TopK experts, not all of them).
func (c *Config) LinearFLOPsPerTokenPerLayer() float64 {
	return c.AttnLinearFLOPsPerTokenPerLayer() + c.MLPLinearFLOPsPerTokenPerLayer()
}

// StageLayers splits the model's layers across ppDepth pipeline stages as
// evenly as possible (earlier stages take the remainder). It panics when
// ppDepth is out of [1, NumLayers].
func (c *Config) StageLayers(ppDepth int) []int {
	if ppDepth < 1 || ppDepth > c.NumLayers {
		panic(fmt.Sprintf("model %s: invalid pipeline depth %d for %d layers", c.Name, ppDepth, c.NumLayers))
	}
	base := c.NumLayers / ppDepth
	rem := c.NumLayers % ppDepth
	out := make([]int, ppDepth)
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// String implements fmt.Stringer.
func (c *Config) String() string {
	return fmt.Sprintf("%s(%dL h=%d params=%.1fB)", c.Name, c.NumLayers, c.HiddenSize, float64(c.TotalParams())/1e9)
}

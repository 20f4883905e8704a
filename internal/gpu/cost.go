package gpu

import (
	"fmt"
	"math"
	"time"

	"gllm/internal/model"
)

// BatchShape aggregates everything the cost model needs to know about one
// micro-batch. Context sums are aggregated over tokens so the model can
// price attention score computation and KV-cache reads:
//
//   - For a prefill chunk of c tokens starting at context offset s,
//     the per-token context is s, s+1, ..., s+c-1, so the chunk contributes
//     c*s + c*(c-1)/2 to PrefillCtxSum.
//   - For a decode token over a sequence of current length L, the token
//     contributes L to DecodeCtxSum.
type BatchShape struct {
	PrefillTokens int     // new prompt tokens in this micro-batch
	PrefillCtxSum float64 // sum of attention context over prefill tokens
	DecodeTokens  int     // decode tokens (== sequences decoding)
	DecodeCtxSum  float64 // sum of attention context over decode tokens
}

// Tokens returns the total batched token count.
func (b BatchShape) Tokens() int { return b.PrefillTokens + b.DecodeTokens }

// Empty reports whether the batch contains no tokens.
func (b BatchShape) Empty() bool { return b.Tokens() == 0 }

// CtxSum returns the total attended context across all tokens.
func (b BatchShape) CtxSum() float64 { return b.PrefillCtxSum + b.DecodeCtxSum }

// Add merges another shape into b.
func (b BatchShape) Add(o BatchShape) BatchShape {
	return BatchShape{
		PrefillTokens: b.PrefillTokens + o.PrefillTokens,
		PrefillCtxSum: b.PrefillCtxSum + o.PrefillCtxSum,
		DecodeTokens:  b.DecodeTokens + o.DecodeTokens,
		DecodeCtxSum:  b.DecodeCtxSum + o.DecodeCtxSum,
	}
}

// PrefillChunkCtxSum computes the context sum contributed by a prefill
// chunk of chunkLen tokens whose first token attends over ctxStart earlier
// tokens.
func PrefillChunkCtxSum(ctxStart, chunkLen int) float64 {
	c := float64(chunkLen)
	return c*float64(ctxStart) + c*(c-1)/2
}

// CostModel prices forward passes of one model on one GPU type. Every layer
// decomposes into an attention component (QKV/O projections, attention
// scores, KV-cache traffic) and an MLP component (FFN projections, expert
// streaming); the aggregate LayerFLOPs/LayerBytes/LayerTime are exact sums
// of the parts, so schemes that shard the two components differently (TKNP,
// expert parallelism) price each side on its own roofline.
// The zero value is invalid; use NewCostModel.
type CostModel struct {
	Model model.Config
	GPU   Spec

	// MFUMax is the achievable model FLOP utilization (dense GEMM
	// efficiency). Small-batch slowness is captured by the roofline's
	// memory term (weight streaming dominates), not by degrading MFU,
	// which keeps decode batches correctly memory-bound.
	MFUMax float64
	// BandwidthEff is the fraction of peak HBM bandwidth achieved.
	BandwidthEff float64
	// ActivationRWFactor approximates intermediate activation traffic as a
	// multiple of the token hidden-state size per layer.
	ActivationRWFactor float64
	// AttnActivationRW is the slice of ActivationRWFactor attributed to the
	// attention component (QKV/score/output intermediates); the remainder
	// is MLP traffic (SwiGLU gate/up/down intermediates). Both are integer
	// multiples so the component split stays exact in float64.
	AttnActivationRW float64
}

// NewCostModel builds a cost model with calibrated default efficiency
// constants. It panics on an invalid model or GPU spec — those are
// programming errors, not runtime conditions.
func NewCostModel(m model.Config, g Spec) CostModel {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return CostModel{
		Model:              m,
		GPU:                g,
		MFUMax:             0.55,
		BandwidthEff:       0.85,
		ActivationRWFactor: 8,
		AttnActivationRW:   3,
	}
}

// AttnProjFLOPs returns the attention projection FLOPs (QKV and output
// GEMMs) of one decoder layer for the batch.
func (cm *CostModel) AttnProjFLOPs(b BatchShape) float64 {
	return cm.Model.AttnLinearFLOPsPerTokenPerLayer() * float64(b.Tokens())
}

// AttnScoreFLOPs returns the attention score FLOPs (QK^T plus
// attention-weighted V over the attended context) of one layer.
func (cm *CostModel) AttnScoreFLOPs(b BatchShape) float64 {
	return 4 * float64(cm.Model.NumHeads) * float64(cm.Model.HeadDim) * b.CtxSum()
}

// AttnFLOPs returns the attention-component FLOPs of one decoder layer:
// QKV/output projections plus attention scores.
func (cm *CostModel) AttnFLOPs(b BatchShape) float64 {
	return cm.AttnProjFLOPs(b) + cm.AttnScoreFLOPs(b)
}

// MLPFLOPs returns the FFN-component FLOPs of one decoder layer (active
// experts plus router under MoE).
func (cm *CostModel) MLPFLOPs(b BatchShape) float64 {
	return cm.Model.MLPLinearFLOPsPerTokenPerLayer() * float64(b.Tokens())
}

// LayerFLOPs returns the forward FLOPs of one decoder layer for the batch.
// It is the exact sum of the attention and MLP components.
func (cm *CostModel) LayerFLOPs(b BatchShape) float64 {
	return cm.AttnFLOPs(b) + cm.MLPFLOPs(b)
}

// ActivatedExperts returns the expected number of distinct experts a batch
// of the given token count activates in one MoE layer under uniform top-k
// routing: E·(1−(1−k/E)^tokens). Dense models activate none (their single
// FFN is accounted as ordinary layer weights).
func (cm *CostModel) ActivatedExperts(tokens int) float64 {
	m := &cm.Model
	if !m.IsMoE() || tokens <= 0 {
		return 0
	}
	e := float64(m.NumExperts)
	p := float64(m.TopK) / e
	return e * (1 - math.Pow(1-p, float64(tokens)))
}

// streamedAttnWeightBytes returns the attention projection weights a batch
// reads from HBM: always the full QKV/O slice (attention weights are never
// expert-gated).
func (cm *CostModel) streamedAttnWeightBytes() float64 {
	return float64(cm.Model.AttnWeightBytesPerLayer())
}

// streamedMLPWeightBytes returns the FFN weights a batch actually reads:
// the whole FFN for dense layers; the router plus only the activated
// experts for MoE layers. This is why MoE decode batches are
// disproportionally memory-bound — a handful of tokens can still touch
// most experts (the paper's §6 future-work observation).
func (cm *CostModel) streamedMLPWeightBytes(tokens int) float64 {
	m := &cm.Model
	if !m.IsMoE() {
		return float64(m.MLPWeightBytesPerLayer())
	}
	router := float64(m.RouterParams() * int64(m.DTypeBytes))
	experts := cm.ActivatedExperts(tokens) * float64(m.ExpertParams()*int64(m.DTypeBytes))
	return router + experts
}

// streamedWeightBytes returns the layer weights a batch actually reads:
// the attention slice plus the streamed FFN slice.
func (cm *CostModel) streamedWeightBytes(tokens int) float64 {
	return cm.streamedAttnWeightBytes() + cm.streamedMLPWeightBytes(tokens)
}

// KVBytes returns the KV-cache traffic of one decoder layer for the batch:
// reads over the attended context plus writes for every new token. This is
// the I/O a TKNP peer pays for its KV partition.
func (cm *CostModel) KVBytes(b BatchShape) float64 {
	kvPerTok := float64(cm.Model.KVBytesPerTokenPerLayer())
	return kvPerTok*b.CtxSum() + kvPerTok*float64(b.Tokens())
}

// AttnBytes returns the attention-component HBM traffic of one decoder
// layer: QKV/O weight streaming, KV-cache reads and writes, and the
// attention share of intermediate activation traffic.
func (cm *CostModel) AttnBytes(b BatchShape) float64 {
	act := cm.AttnActivationRW * float64(cm.Model.ActivationBytesPerToken()) * float64(b.Tokens())
	return cm.streamedAttnWeightBytes() + cm.KVBytes(b) + act
}

// MLPBytes returns the FFN-component HBM traffic of one decoder layer:
// streamed FFN weights plus the MLP share of activation traffic.
func (cm *CostModel) MLPBytes(b BatchShape) float64 {
	mlpAct := cm.ActivationRWFactor - cm.AttnActivationRW
	act := mlpAct * float64(cm.Model.ActivationBytesPerToken()) * float64(b.Tokens())
	return cm.streamedMLPWeightBytes(b.Tokens()) + act
}

// LayerBytes returns the HBM traffic of one decoder layer for the batch.
// It is the exact sum of the attention and MLP components.
func (cm *CostModel) LayerBytes(b BatchShape) float64 {
	return cm.AttnBytes(b) + cm.MLPBytes(b)
}

// roofline converts a FLOP count and a byte count into execution time on
// this GPU (whichever limiter dominates), without kernel overhead.
func (cm *CostModel) roofline(flops, bytes float64) time.Duration {
	compute := flops / (cm.GPU.PeakFLOPS * cm.MFUMax)
	mem := bytes / (cm.GPU.MemBandwidth * cm.BandwidthEff)
	t := compute
	if mem > t {
		t = mem
	}
	return time.Duration(t * float64(time.Second))
}

// LayerTime returns the roofline execution time of one decoder layer.
// An empty batch costs zero.
func (cm *CostModel) LayerTime(b BatchShape) time.Duration {
	if b.Empty() {
		return 0
	}
	return cm.roofline(cm.LayerFLOPs(b), cm.LayerBytes(b)) + cm.GPU.KernelOverhead
}

// StageTime returns the execution time of `layers` consecutive decoder
// layers on one GPU (one pipeline stage).
func (cm *CostModel) StageTime(b BatchShape, layers int) time.Duration {
	if layers < 0 {
		panic(fmt.Sprintf("gpu: negative layer count %d", layers))
	}
	if b.Empty() || layers == 0 {
		return 0
	}
	return time.Duration(layers) * cm.LayerTime(b)
}

// kvShard clamps a head-sharded parallelism degree to the model's KV head
// count: grouped-query attention has only NumKVHeads KV heads to split, so
// beyond that degree every extra rank holds a replica of some KV head and
// per-rank KV traffic (and residency) stops shrinking. Token-partitioned
// schemes (TKNP) are exempt — they split KV by sequence, not by head.
func (cm *CostModel) kvShard(degree int) int {
	if kv := cm.Model.NumKVHeads; degree > kv {
		return kv
	}
	return degree
}

// TensorParallelLayerTime returns the per-layer compute time when the layer
// is split across tpDegree GPUs (communication is priced separately by the
// network model). FLOPs and bytes split evenly — except KV-cache traffic,
// which under grouped-query attention can shard at most NumKVHeads ways;
// past that the per-rank KV I/O stops shrinking.
func (cm *CostModel) TensorParallelLayerTime(b BatchShape, tpDegree int) time.Duration {
	if tpDegree < 1 {
		panic(fmt.Sprintf("gpu: invalid TP degree %d", tpDegree))
	}
	if b.Empty() {
		return 0
	}
	kvShard := cm.kvShard(tpDegree)
	if kvShard == tpDegree {
		compute := cm.LayerFLOPs(b) / float64(tpDegree) / (cm.GPU.PeakFLOPS * cm.MFUMax)
		mem := cm.LayerBytes(b) / float64(tpDegree) / (cm.GPU.MemBandwidth * cm.BandwidthEff)
		t := compute
		if mem > t {
			t = mem
		}
		return time.Duration(t*float64(time.Second)) + cm.GPU.KernelOverhead
	}
	kv := cm.KVBytes(b)
	flops := cm.LayerFLOPs(b) / float64(tpDegree)
	bytes := (cm.LayerBytes(b)-kv)/float64(tpDegree) + kv/float64(kvShard)
	return cm.roofline(flops, bytes) + cm.GPU.KernelOverhead
}

// TokenParallelRootLayerTime prices one layer's work on the TKNP root
// group: the root ranks hold the full weights and run QKV/output
// projections and the MLP for the whole batch (split rootTP ways when the
// root group is itself tensor-parallel), streaming all layer weights and
// activation traffic but none of the KV cache — peers own that.
func (cm *CostModel) TokenParallelRootLayerTime(b BatchShape, rootTP int) time.Duration {
	if rootTP < 1 {
		panic(fmt.Sprintf("gpu: invalid root TP degree %d", rootTP))
	}
	if b.Empty() {
		return 0
	}
	flops := (cm.AttnProjFLOPs(b) + cm.MLPFLOPs(b)) / float64(rootTP)
	act := cm.ActivationRWFactor * float64(cm.Model.ActivationBytesPerToken()) * float64(b.Tokens())
	bytes := (cm.streamedWeightBytes(b.Tokens()) + act) / float64(rootTP)
	return cm.roofline(flops, bytes) + cm.GPU.KernelOverhead
}

// TokenParallelPeerLayerTime prices one layer's attention over a KV
// partition spanning groupSize ranks: each rank computes attention scores
// for its 1/groupSize slice of the batch's context, reading and writing
// only its own KV partition. No weights are streamed — peers hold none.
func (cm *CostModel) TokenParallelPeerLayerTime(b BatchShape, groupSize int) time.Duration {
	if groupSize < 1 {
		panic(fmt.Sprintf("gpu: invalid TKNP group size %d", groupSize))
	}
	if b.Empty() {
		return 0
	}
	flops := cm.AttnScoreFLOPs(b) / float64(groupSize)
	bytes := cm.KVBytes(b) / float64(groupSize)
	return cm.roofline(flops, bytes) + cm.GPU.KernelOverhead
}

// KVCapacityTokensPP returns how many tokens of KV cache the cluster can
// hold under pipeline parallelism with the given per-stage layer split and
// memory utilization fraction (GPU memory reserved for weights first; the
// paper's --gpu-memory-util knob). The cluster capacity is the minimum
// across stages because page tables are shared (every sequence occupies
// the same token slots on every stage).
func (cm *CostModel) KVCapacityTokensPP(stageLayers []int, memUtil float64) int64 {
	if !(memUtil > 0 && memUtil <= 1) {
		panic(fmt.Sprintf("gpu: memUtil %g out of (0,1]", memUtil))
	}
	minTokens := int64(-1)
	for _, layers := range stageLayers {
		weights := int64(layers) * cm.Model.WeightBytesPerLayer()
		avail := int64(float64(cm.GPU.MemoryBytes)*memUtil) - weights
		if avail < 0 {
			avail = 0
		}
		perTok := int64(layers) * cm.Model.KVBytesPerTokenPerLayer()
		if perTok == 0 {
			continue
		}
		tokens := avail / perTok
		if minTokens < 0 || tokens < minTokens {
			minTokens = tokens
		}
	}
	if minTokens < 0 {
		return 0
	}
	return minTokens
}

// KVCapacityTokensTP returns the KV capacity under tensor parallelism of
// the given degree: weights shard tpDegree ways, but KV residency shards at
// most NumKVHeads ways (grouped-query attention replicates KV heads on the
// extra ranks, so per-rank KV bytes per token stop shrinking past that).
func (cm *CostModel) KVCapacityTokensTP(tpDegree int, memUtil float64) int64 {
	if tpDegree < 1 {
		panic(fmt.Sprintf("gpu: invalid TP degree %d", tpDegree))
	}
	if !(memUtil > 0 && memUtil <= 1) {
		panic(fmt.Sprintf("gpu: memUtil %g out of (0,1]", memUtil))
	}
	weights := (int64(cm.Model.NumLayers)*cm.Model.WeightBytesPerLayer() +
		cm.Model.EmbeddingParams()*int64(cm.Model.DTypeBytes)) / int64(tpDegree)
	avail := int64(float64(cm.GPU.MemoryBytes)*memUtil) - weights
	if avail < 0 {
		return 0
	}
	perTok := cm.Model.KVBytesPerToken() / int64(cm.kvShard(tpDegree))
	if perTok == 0 {
		return 0
	}
	return avail / perTok
}

// KVCapacityTokensTKNP returns the KV capacity of a token-parallel group of
// groupSize ranks where the first rootTP ranks each hold a 1/rootTP slice
// of the full model weights (plus embeddings) and every rank — roots
// included — contributes its remaining memory to the sharded KV pool.
func (cm *CostModel) KVCapacityTokensTKNP(groupSize, rootTP int, memUtil float64) int64 {
	if groupSize < 1 || rootTP < 1 || rootTP > groupSize {
		panic(fmt.Sprintf("gpu: invalid TKNP group %d/root %d", groupSize, rootTP))
	}
	if !(memUtil > 0 && memUtil <= 1) {
		panic(fmt.Sprintf("gpu: memUtil %g out of (0,1]", memUtil))
	}
	rootWeights := (int64(cm.Model.NumLayers)*cm.Model.WeightBytesPerLayer() +
		cm.Model.EmbeddingParams()*int64(cm.Model.DTypeBytes)) / int64(rootTP)
	budget := int64(float64(cm.GPU.MemoryBytes) * memUtil)
	var total int64
	for rank := 0; rank < groupSize; rank++ {
		avail := budget
		if rank < rootTP {
			avail -= rootWeights
		}
		if avail > 0 {
			total += avail
		}
	}
	perTok := cm.Model.KVBytesPerToken()
	if perTok == 0 {
		return 0
	}
	return total / perTok
}

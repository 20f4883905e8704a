package workload

import (
	"fmt"
	"time"

	"gllm/internal/stats"
)

// ConversationSpec parameterizes multi-turn chat synthesis.
type ConversationSpec struct {
	// Dataset supplies the first turn's prompt/output lengths and later
	// turns' output lengths.
	Dataset Dataset
	// Rate is the conversation start rate (conversations/s, Poisson).
	Rate float64
	// Window is the span during which conversations start.
	Window time.Duration
	// MaxTurns caps turns per conversation (uniform in [1, MaxTurns]).
	MaxTurns int
	// ThinkMean is the mean user think time between turns (exponential).
	ThinkMean time.Duration
	// FollowUpLen is the mean length of each follow-up user message
	// (uniform in [1, 2*FollowUpLen-1]).
	FollowUpLen int
	// MaxContext bounds a conversation's accumulated context; longer
	// conversations stop growing (and stop) once the next prompt would
	// exceed it.
	MaxContext int
}

// DefaultConversationSpec returns chat-like defaults over a dataset.
func DefaultConversationSpec(d Dataset, rate float64, window time.Duration) ConversationSpec {
	return ConversationSpec{
		Dataset:     d,
		Rate:        rate,
		Window:      window,
		MaxTurns:    5,
		ThinkMean:   8 * time.Second,
		FollowUpLen: 40,
		MaxContext:  6144,
	}
}

// Conversations synthesizes multi-turn chat traffic: each conversation is a
// sequence of requests where turn t's prompt is the whole accumulated
// context (previous prompts and model outputs — the shared prefix) plus a
// fresh user message. The returned trace is sorted by arrival; turns of one
// conversation share a PrefixGroup so prefix caching can reuse their
// context KV.
func Conversations(r *stats.RNG, spec ConversationSpec) []Item {
	if spec.Rate <= 0 || spec.Window <= 0 {
		panic(fmt.Sprintf("workload: Conversations rate %g window %v", spec.Rate, spec.Window))
	}
	if spec.MaxTurns < 1 || spec.FollowUpLen < 1 || spec.MaxContext < 1 {
		panic(fmt.Sprintf("workload: Conversations spec %+v", spec))
	}
	var items []Item
	start := time.Duration(0)
	group := int64(0)
	for {
		start += time.Duration(r.Exp(spec.Rate) * float64(time.Second))
		if start >= spec.Window {
			break
		}
		group++
		turns := r.IntRange(1, spec.MaxTurns)
		at := start
		ctx := 0 // accumulated shared context (prompt+output so far)
		for t := 0; t < turns; t++ {
			var promptLen, outLen int
			if t == 0 {
				promptLen, outLen = spec.Dataset.Sample(r)
			} else {
				userMsg := r.IntRange(1, 2*spec.FollowUpLen-1)
				promptLen = ctx + userMsg
				_, outLen = spec.Dataset.Sample(r)
			}
			if promptLen+outLen > spec.MaxContext {
				break
			}
			items = append(items, Item{
				Arrival:         at,
				PromptLen:       promptLen,
				OutputLen:       outLen,
				PrefixGroup:     group,
				SharedPrefixLen: ctx,
			})
			ctx = promptLen + outLen
			at += time.Duration(r.Exp(1/spec.ThinkMean.Seconds()) * float64(time.Second))
		}
	}
	Sort(items)
	return items
}

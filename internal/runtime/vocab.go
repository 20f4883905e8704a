package runtime

import "strings"

// TokenValue deterministically derives the token sampled at output index
// idx of request reqID (greedy sampling of the emulated model). Because the
// value depends only on (request, index), generated content is invariant
// under scheduling policy — the property the paper's Table 1 checks with
// MMLU-Pro and that the Table 1 experiment here verifies directly.
func TokenValue(reqID int64, idx int) uint64 {
	x := uint64(reqID)*0x9E3779B97F4A7C15 + uint64(idx) + 0x632BE59BD9B4E019
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// vocab is the emulated detokenizer vocabulary.
var vocab = []string{
	"the", "of", "and", "to", "in", "is", "that", "it", "for", "as",
	"with", "was", "on", "are", "by", "this", "be", "from", "or", "an",
	"which", "one", "would", "all", "will", "there", "can", "more", "if", "has",
	"two", "may", "time", "system", "model", "token", "cache", "batch", "stage", "pipe",
	"serve", "load", "rate", "queue", "first", "next", "data", "run", "plan", "flow",
	"node", "link", "wave", "step", "core", "unit", "line", "word", "page", "block",
	"depth", "scale", "merge", "split",
}

// vocabSpaced holds every vocab word with its trailing space precomputed,
// so rendering a token is a table lookup instead of a per-token string
// concatenation (TokenText runs once per generated token on the live path).
var vocabSpaced = func() []string {
	out := make([]string, len(vocab))
	for i, w := range vocab {
		out[i] = w + " "
	}
	return out
}()

// TokenText renders a token value as detokenized text (word plus trailing
// space). Allocation-free: the rendered strings are precomputed.
func TokenText(tok uint64) string {
	return vocabSpaced[tok%uint64(len(vocabSpaced))]
}

// TokenizeLen counts the tokens of a prompt string under the emulated
// tokenizer (whitespace words; empty prompts count as one token).
func TokenizeLen(prompt string) int {
	n := len(strings.Fields(prompt))
	if n == 0 {
		return 1
	}
	return n
}

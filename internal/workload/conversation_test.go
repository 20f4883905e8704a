package workload

import (
	"testing"
	"time"

	"gllm/internal/stats"
)

func convSpec(rate float64, window time.Duration) ConversationSpec {
	return DefaultConversationSpec(ShareGPT, rate, window)
}

func TestConversationsValidTrace(t *testing.T) {
	items := Conversations(stats.NewRNG(1), convSpec(2, 60*time.Second))
	if len(items) == 0 {
		t.Fatal("no conversations generated")
	}
	if err := Validate(items); err != nil {
		t.Fatal(err)
	}
}

func TestConversationsSharedPrefixGrows(t *testing.T) {
	items := Conversations(stats.NewRNG(3), convSpec(1, 120*time.Second))
	byGroup := map[int64][]Item{}
	for _, it := range items {
		if it.PrefixGroup == 0 {
			t.Fatal("conversation item without group")
		}
		byGroup[it.PrefixGroup] = append(byGroup[it.PrefixGroup], it)
	}
	multi := 0
	for g, turns := range byGroup {
		if turns[0].SharedPrefixLen != 0 {
			t.Fatalf("group %d first turn shares %d tokens", g, turns[0].SharedPrefixLen)
		}
		prev := turns[0]
		for i, turn := range turns[1:] {
			// Turn i+1's shared prefix is exactly the prior accumulated
			// context, and its prompt strictly extends it.
			if turn.SharedPrefixLen != prev.PromptLen+prev.OutputLen {
				t.Fatalf("group %d turn %d shares %d, want %d",
					g, i+1, turn.SharedPrefixLen, prev.PromptLen+prev.OutputLen)
			}
			if turn.PromptLen <= turn.SharedPrefixLen {
				t.Fatalf("group %d turn %d prompt %d <= shared %d",
					g, i+1, turn.PromptLen, turn.SharedPrefixLen)
			}
			if turn.Arrival <= prev.Arrival {
				t.Fatalf("group %d turns out of order", g)
			}
			prev = turn
		}
		if len(turns) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no multi-turn conversations at all")
	}
}

func TestConversationsRespectMaxContext(t *testing.T) {
	spec := convSpec(2, 60*time.Second)
	spec.MaxContext = 800
	items := Conversations(stats.NewRNG(5), spec)
	for _, it := range items {
		if it.PromptLen+it.OutputLen > spec.MaxContext {
			t.Fatalf("item exceeds MaxContext: %+v", it)
		}
	}
}

func TestConversationsDeterministic(t *testing.T) {
	a := Conversations(stats.NewRNG(9), convSpec(2, 30*time.Second))
	b := Conversations(stats.NewRNG(9), convSpec(2, 30*time.Second))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("item %d differs", i)
		}
	}
}

func TestConversationsPanics(t *testing.T) {
	for _, fn := range []func(){
		func() {
			Conversations(stats.NewRNG(1), ConversationSpec{Dataset: ShareGPT, Rate: 0, Window: time.Second, MaxTurns: 1, FollowUpLen: 1, MaxContext: 10, ThinkMean: time.Second})
		},
		func() {
			s := convSpec(1, time.Minute)
			s.MaxTurns = 0
			Conversations(stats.NewRNG(1), s)
		},
		func() {
			s := convSpec(1, time.Minute)
			s.FollowUpLen = 0
			Conversations(stats.NewRNG(1), s)
		},
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

func TestConversationsShareSubstantialVolume(t *testing.T) {
	items := Conversations(stats.NewRNG(11), convSpec(4, 120*time.Second))
	var prompt, shared float64
	for _, it := range items {
		prompt += float64(it.PromptLen)
		shared += float64(it.SharedPrefixLen)
	}
	if shared/prompt < 0.2 {
		t.Fatalf("shared fraction = %.2f, conversations should reuse plenty", shared/prompt)
	}
}

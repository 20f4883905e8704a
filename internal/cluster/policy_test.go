package cluster

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"gllm/internal/runtime"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"random", "round-robin", "least-kv", "prefix"} {
		p, err := ByName(name, 1)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ByName("bogus", 1); err == nil {
		t.Fatal("ByName(bogus) must error")
	}
}

func TestRoundRobinCycles(t *testing.T) {
	reps := fakeReplicas(newFakeEngine(okPressure()), newFakeEngine(okPressure()), newFakeEngine(okPressure()))
	p := NewRoundRobin()
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := p.Pick(Request{}, reps); got != w {
			t.Fatalf("pick %d = %d, want %d", i, got, w)
		}
	}
	// The cycle must adapt when the candidate set shrinks (a drain): picks
	// stay in bounds and keep covering every remaining replica.
	small := reps[:2]
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		got := p.Pick(Request{}, small)
		if got < 0 || got >= len(small) {
			t.Fatalf("pick out of bounds: %d", got)
		}
		seen[got] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("shrunken cycle missed a replica: %v", seen)
	}
}

func TestRandomSeededAndCovering(t *testing.T) {
	reps := fakeReplicas(newFakeEngine(okPressure()), newFakeEngine(okPressure()), newFakeEngine(okPressure()))
	a, b := NewRandom(7), NewRandom(7)
	counts := map[int]int{}
	for i := 0; i < 300; i++ {
		got := a.Pick(Request{}, reps)
		if other := b.Pick(Request{}, reps); other != got {
			t.Fatalf("same seed diverged at pick %d: %d vs %d", i, got, other)
		}
		if got < 0 || got >= len(reps) {
			t.Fatalf("pick out of bounds: %d", got)
		}
		counts[got]++
	}
	for i := range reps {
		if counts[i] == 0 {
			t.Fatalf("replica %d never picked in 300 draws: %v", i, counts)
		}
	}
}

func TestLeastKVOrdering(t *testing.T) {
	cases := []struct {
		name     string
		pressure []runtime.Pressure
		want     int
	}{
		{
			name: "most KV headroom wins",
			pressure: []runtime.Pressure{
				{KVFree: 0.2}, {KVFree: 0.9}, {KVFree: 0.5},
			},
			want: 1,
		},
		{
			name: "KV tie breaks on fewest resident",
			pressure: []runtime.Pressure{
				{KVFree: 0.5, Resident: 9}, {KVFree: 0.5, Resident: 2}, {KVFree: 0.5, Resident: 5},
			},
			want: 1,
		},
		{
			name: "KV and resident tie breaks on shortest queue",
			pressure: []runtime.Pressure{
				{KVFree: 0.5, Resident: 3, QueueLen: 4}, {KVFree: 0.5, Resident: 3, QueueLen: 1}, {KVFree: 0.5, Resident: 3, QueueLen: 2},
			},
			want: 1,
		},
		{
			name: "full tie: earliest candidate wins",
			pressure: []runtime.Pressure{
				{KVFree: 0.5, Resident: 3, QueueLen: 2}, {KVFree: 0.5, Resident: 3, QueueLen: 2}, {KVFree: 0.5, Resident: 3, QueueLen: 2},
			},
			want: 0,
		},
		{
			name: "all saturated: still picks deterministically (least bad)",
			pressure: []runtime.Pressure{
				{KVFree: 0, Resident: 100}, {KVFree: 0, Resident: 90}, {KVFree: 0, Resident: 95},
			},
			want: 1,
		},
	}
	p := NewLeastKV()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engines := make([]*fakeEngine, len(tc.pressure))
			for i, pr := range tc.pressure {
				pr.Health = runtime.HealthOK
				engines[i] = newFakeEngine(pr)
			}
			if got := p.Pick(Request{}, fakeReplicas(engines...)); got != tc.want {
				t.Fatalf("Pick = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestPrefixAffinity(t *testing.T) {
	// Three replicas; b has the most free KV so least-KV fallback lands
	// new groups there.
	mk := func() ([]*fakeEngine, []*Replica) {
		engines := []*fakeEngine{
			newFakeEngine(runtime.Pressure{KVFree: 0.5, Health: runtime.HealthOK}),
			newFakeEngine(runtime.Pressure{KVFree: 0.9, Health: runtime.HealthOK}),
			newFakeEngine(runtime.Pressure{KVFree: 0.7, Health: runtime.HealthOK}),
		}
		return engines, fakeReplicas(engines...)
	}

	t.Run("no group falls through to fallback", func(t *testing.T) {
		_, reps := mk()
		p := NewPrefixAffinity(nil)
		if got := p.Pick(Request{}, reps); got != 1 {
			t.Fatalf("Pick = %d, want fallback choice 1", got)
		}
	})

	t.Run("cold start assigns, follow-ups stick", func(t *testing.T) {
		engines, reps := mk()
		p := NewPrefixAffinity(nil)
		first := p.Pick(Request{PrefixGroup: 42}, reps)
		if first != 1 {
			t.Fatalf("cold start Pick = %d, want fallback choice 1", first)
		}
		// The prefix is now resident on b; a now has more free KV, but the
		// follow-up must stick with its home anyway.
		engines[1].match[42] = 64
		engines[0].setPressure(runtime.Pressure{KVFree: 0.95, Health: runtime.HealthOK})
		for i := 0; i < 3; i++ {
			if got := p.Pick(Request{PrefixGroup: 42, SharedPrefixLen: 64}, reps); got != 1 {
				t.Fatalf("follow-up %d Pick = %d, want sticky 1", i, got)
			}
		}
	})

	t.Run("evicted prefix re-places the group", func(t *testing.T) {
		engines, reps := mk()
		p := NewPrefixAffinity(nil)
		p.Pick(Request{PrefixGroup: 7}, reps) // home = b (index 1)
		// b evicted the prefix (match 0) and a is now the fallback choice.
		engines[0].setPressure(runtime.Pressure{KVFree: 0.95, Health: runtime.HealthOK})
		if got := p.Pick(Request{PrefixGroup: 7, SharedPrefixLen: 32}, reps); got != 0 {
			t.Fatalf("evicted follow-up Pick = %d, want re-placed 0", got)
		}
		// The group re-homed: next follow-up sticks to a once resident there.
		engines[0].match[7] = 32
		if got := p.Pick(Request{PrefixGroup: 7, SharedPrefixLen: 32}, reps); got != 0 {
			t.Fatal("re-homed group must stick to its new home")
		}
	})

	t.Run("saturated home spills to fallback", func(t *testing.T) {
		engines, reps := mk()
		p := NewPrefixAffinity(nil)
		p.Pick(Request{PrefixGroup: 9}, reps) // home = b
		engines[1].match[9] = 16
		engines[1].setPressure(runtime.Pressure{KVFree: 0.05, Health: runtime.HealthOK}) // 95% used > 0.9 spill
		got := p.Pick(Request{PrefixGroup: 9, SharedPrefixLen: 16}, reps)
		if got == 1 {
			t.Fatal("saturated home must spill")
		}
		if got != 2 { // c now has the most free KV
			t.Fatalf("spill Pick = %d, want 2", got)
		}
	})

	t.Run("drained home re-places among survivors", func(t *testing.T) {
		engines, reps := mk()
		p := NewPrefixAffinity(nil)
		p.Pick(Request{PrefixGroup: 5}, reps) // home = b
		engines[1].match[5] = 8
		survivors := []*Replica{reps[0], reps[2]} // b drained out of the candidate set
		got := p.Pick(Request{PrefixGroup: 5, SharedPrefixLen: 8}, survivors)
		if got != 1 { // index 1 of survivors == c (KVFree 0.7 > a's 0.5)
			t.Fatalf("orphaned group Pick = %d, want 1 (replica c)", got)
		}
		// c now holds the group: follow-ups go there even after a frees up.
		engines[2].match[5] = 8
		engines[0].setPressure(runtime.Pressure{KVFree: 0.99, Health: runtime.HealthOK})
		if got := p.Pick(Request{PrefixGroup: 5, SharedPrefixLen: 8}, survivors); got != 1 {
			t.Fatal("re-homed group must stick to replica c")
		}
	})

	t.Run("the longest resident run wins", func(t *testing.T) {
		engines, reps := mk()
		p := NewPrefixAffinity(nil)
		p.Pick(Request{PrefixGroup: 11}, reps) // first turn lands on b
		engines[1].match[11] = 16
		engines[2].match[11] = 64
		if got := p.Pick(Request{PrefixGroup: 11, SharedPrefixLen: 64}, reps); got != 2 {
			t.Fatalf("Pick = %d, want 2 (replica c holds 64 tokens, b 16)", got)
		}
	})

	t.Run("a fresh policy finds a warm replica", func(t *testing.T) {
		// A router restarted over warm replicas: nothing was routed through
		// this policy, yet c's cache holds the group.
		engines, reps := mk()
		engines[2].match[13] = 32
		if got := NewPrefixAffinity(nil).Pick(Request{PrefixGroup: 13, SharedPrefixLen: 32}, reps); got != 2 {
			t.Fatalf("Pick = %d, want warm replica 2", got)
		}
	})

	t.Run("the scan stops at the first full holder", func(t *testing.T) {
		engines, reps := mk()
		p := NewPrefixAffinity(nil)
		calls := func() []int {
			out := make([]int, len(engines))
			for i, e := range engines {
				e.mu.Lock()
				out[i] = e.matchCalls
				e.matchCalls = 0
				e.mu.Unlock()
			}
			return out
		}
		if got := p.Pick(Request{PrefixGroup: 17}, reps); got != 1 {
			t.Fatalf("first turn Pick = %d, want fallback choice 1", got)
		}
		if c := calls(); !slices.Equal(c, []int{0, 0, 0}) {
			t.Fatalf("a request without a shared prefix asked %v, want none", c)
		}
		// a and b both hold the whole block-rounded prefix (70 rounds to
		// 64): a, the lowest index, wins and b is never asked.
		engines[0].match[17] = 64
		engines[1].match[17] = 64
		if got := p.Pick(Request{PrefixGroup: 17, SharedPrefixLen: 70}, reps); got != 0 {
			t.Fatalf("follow-up Pick = %d, want first full holder 0", got)
		}
		if c := calls(); !slices.Equal(c, []int{1, 0, 0}) {
			t.Fatalf("follow-up asked %v, want [1 0 0]", c)
		}
		// A partial holder keeps the scan going.
		engines[0].match[17] = 16
		if got := p.Pick(Request{PrefixGroup: 17, SharedPrefixLen: 70}, reps); got != 1 {
			t.Fatalf("follow-up Pick = %d, want full holder 1", got)
		}
		if c := calls(); !slices.Equal(c, []int{1, 1, 0}) {
			t.Fatalf("follow-up asked %v, want [1 1 0]", c)
		}
	})
}

// Prefix affinity beats random on KV reuse over live replicas: the same
// seeded conversation set is replayed unpaced (TimeScale 0, one goroutine
// per conversation so a follow-up is sent once its previous turn has
// finished) through three prefix-caching replicas once per policy. Both
// runs serve every request and pass the cluster audit; only where the
// follow-ups land differs.
func TestPrefixAffinityBeatsRandomOnKVReuse(t *testing.T) {
	trace := workload.Conversations(stats.NewRNG(smokeSeed), workload.ConversationSpec{
		Dataset: workload.ShareGPT, Rate: 40, Window: time.Second,
		MaxTurns: 4, ThinkMean: 100 * time.Millisecond, FollowUpLen: 24, MaxContext: 2048,
	})
	convs := map[int64][]workload.Item{}
	for _, it := range trace {
		convs[it.PrefixGroup] = append(convs[it.PrefixGroup], it)
	}
	hitTokens := func(policy string) int64 {
		pol, err := ByName(policy, smokeSeed)
		if err != nil {
			t.Fatal(err)
		}
		r := New(Config{Policy: pol, Seed: smokeSeed})
		for _, id := range []string{"r0", "r1", "r2"} {
			if _, err := r.Add(id, startReplica(t, nil)); err != nil {
				t.Fatal(err)
			}
		}
		var (
			audit Audit
			wg    sync.WaitGroup
		)
		for _, turns := range convs {
			wg.Add(1)
			go func(turns []workload.Item) {
				defer wg.Done()
				for _, it := range turns {
					h, _, err := r.Submit(context.Background(), Request{
						PromptLen: it.PromptLen, MaxTokens: it.OutputLen,
						PrefixGroup: it.PrefixGroup, SharedPrefixLen: it.SharedPrefixLen,
					})
					if err != nil {
						t.Errorf("%s: submit: %v", policy, err)
						audit.RejectedSubmit()
						continue
					}
					n, reason, err := drainStream(h, smokeDrain)
					if err != nil {
						t.Errorf("%s: %v", policy, err)
					}
					audit.StreamDone(h.ID, n, it.OutputLen, reason)
				}
			}(turns)
		}
		wg.Wait()
		shutdown(t, r)
		if err := audit.Verify(int64(len(trace)), r.Retired()); err != nil {
			t.Fatalf("%s: audit: %v", policy, err)
		}
		if _, completed, _, _ := audit.Streams(); completed != int64(len(trace)) {
			t.Fatalf("%s: completed %d of %d requests", policy, completed, len(trace))
		}
		return r.Stats().PrefixHitTokens
	}
	random, prefix := hitTokens("random"), hitTokens("prefix")
	if prefix <= random {
		t.Fatalf("prefix-affinity reused %d prompt tokens from KV, random %d: affinity must win", prefix, random)
	}
}

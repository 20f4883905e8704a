package engine

import (
	"slices"
	"testing"
	"time"

	"gllm/internal/obs"
)

// FuzzStagesBook books random batches through every stage of a Stages row,
// as the live driver does at injection, and checks the ledger Book keeps.
// The header bytes pick the depth, each stage's layers, the first lane,
// the hop price, a Fault and a Scale; then each byte triple is one batch:
// its per-layer price, its tokens and how long after the previous batch
// its activations arrive. On every stage the windows never overlap and
// each opens at or after its arrival; Busy[i] and Transfer[i] are the sums
// of stage i's exec and hop spans to the nanosecond; and a nil Scale books
// the same windows as an identity one.
func FuzzStagesBook(f *testing.F) {
	f.Add([]byte{3, 4, 4, 3, 3, 0, 9, 0, 0, 20, 5, 0, 30, 7, 1, 20, 9, 200})
	f.Add([]byte{4, 10, 10, 9, 9, 1, 40, 3, 12, 255, 255, 0, 1, 1, 0, 255, 2, 3})
	f.Add([]byte{0, 0, 2, 0, 5, 1, 1, 1, 1, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		depth := 1 + next()%6
		layers := make([]int, depth)
		for i := range layers {
			layers[i] = next() % 16
		}
		first, hop, faultMod, factor := next()%3, time.Duration(next())*time.Microsecond, next()%8, next()%64
		book := func(scale func(time.Duration) time.Duration) (*Stages, []time.Duration, []obs.Span) {
			p := &Stages{Free: make([]time.Duration, depth), Layers: layers, Busy: make([]time.Duration, depth),
				Transfer: make([]time.Duration, depth), First: first,
				Spans: obs.NewRecorder(first+depth, 2*depth*(len(data)/3+1)), Scale: scale,
				Hop: func(lane, tokens int) time.Duration { return time.Duration(lane+1)*hop + time.Duration(tokens) }}
			if faultMod > 0 {
				// Negative delays too: Book ignores them.
				p.Fault = func(stage, seq int) time.Duration {
					return time.Duration((seq*7+stage*3)%faultMod-faultMod/2) * time.Millisecond
				}
			}
			var arrivals []time.Duration // each Book's at, in booking order
			var injected time.Duration
			for seq, rest := 1, data; len(rest) >= 3; seq, rest = seq+1, rest[3:] {
				unit, tokens := time.Duration(rest[0])*time.Microsecond, 1+int(rest[1])
				injected += time.Duration(rest[2]) * 100 * time.Microsecond
				at := injected
				for s := range depth {
					arrivals = append(arrivals, at)
					at = p.Book(s, seq, tokens, at, unit)
				}
			}
			return p, arrivals, p.Spans.Spans()
		}

		scaled := func(d time.Duration) time.Duration { return time.Duration(float64(d) * float64(factor) / 16) }
		p, arrivals, spans := book(scaled)
		var exec []obs.Span
		hops := make([]time.Duration, depth)
		for _, sp := range spans {
			switch sp.Kind {
			case obs.KindExec:
				exec = append(exec, sp)
			case obs.KindXfer:
				hops[int(sp.Stage)-first] += sp.Dur()
			}
		}
		if len(exec) != len(arrivals) {
			t.Fatalf("%d exec spans for %d bookings", len(exec), len(arrivals))
		}
		busy, free := make([]time.Duration, depth), make([]time.Duration, depth)
		for k, sp := range exec {
			s := int(sp.Stage) - first
			if s != k%depth {
				t.Fatalf("booking %d recorded on stage %d, want %d", k, s, k%depth)
			}
			if sp.Start < arrivals[k] || sp.Start < free[s] {
				t.Fatalf("stage %d window [%v, %v] opens before its arrival %v or the previous window's end %v",
					s, sp.Start, sp.End, arrivals[k], free[s])
			}
			busy[s] += sp.Dur()
			free[s] = sp.End
		}
		if !slices.Equal(p.Busy, busy) {
			t.Fatalf("Busy = %v, exec spans sum to %v", p.Busy, busy)
		}
		if !slices.Equal(p.Transfer, hops) {
			t.Fatalf("Transfer = %v, hop spans sum to %v", p.Transfer, hops)
		}
		if !slices.Equal(p.Free, free) {
			t.Fatalf("Free = %v, last exec spans end at %v", p.Free, free)
		}

		bare, _, bareSpans := book(nil)
		ident, _, identSpans := book(func(d time.Duration) time.Duration { return d })
		if !slices.Equal(bareSpans, identSpans) || !slices.Equal(bare.Busy, ident.Busy) {
			t.Fatalf("a nil Scale books %v (busy %v), an identity one %v (busy %v)",
				bareSpans, bare.Busy, identSpans, ident.Busy)
		}
	})
}

package ring

import (
	"slices"
	"testing"
)

// TestBufferRetainsNewestOldestFirst walks the fill levels around the
// capacity: empty, part full, exactly full (where the old hand-rolled rings
// of ReqRecorder and Timeline returned nothing), wrapped once and twice.
func TestBufferRetainsNewestOldestFirst(t *testing.T) {
	const capacity = 4
	for _, pushes := range []int{0, 1, capacity - 1, capacity, capacity + 1, 2 * capacity, 2*capacity + 1} {
		b := New[int](capacity)
		for i := range pushes {
			b.Push(i)
		}
		var want []int
		for i := max(0, pushes-capacity); i < pushes; i++ {
			want = append(want, i)
		}
		if got := b.Snapshot(); !slices.Equal(got, want) {
			t.Errorf("%d pushes: snapshot %v, want %v", pushes, got, want)
		}
		if b.Total() != uint64(pushes) || b.Dropped() != uint64(pushes-len(want)) {
			t.Errorf("%d pushes: total %d dropped %d", pushes, b.Total(), b.Dropped())
		}
	}
}

func TestPushDoesNotAllocate(t *testing.T) {
	b := New[[4]int64](8)
	if n := testing.AllocsPerRun(1000, func() { b.Push([4]int64{1, 2, 3, 4}) }); n != 0 {
		t.Fatalf("Push allocates %v per call", n)
	}
}

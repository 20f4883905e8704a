// Package ring is the fixed-capacity buffer behind the span recorders
// (internal/obs) and the cluster timeline: a push overwrites the oldest value
// once the buffer is full, and a snapshot returns what is retained, oldest
// first. It does no locking; each owner guards its buffer with its own mutex.
package ring

// Buffer retains the last len(buf) values pushed. Push never allocates.
type Buffer[T any] struct {
	buf   []T
	next  int    // slot the next Push writes
	total uint64 // values ever pushed (total − retained = dropped)
}

// New returns a buffer retaining the last capacity values (capacity ≥ 1).
func New[T any](capacity int) Buffer[T] {
	return Buffer[T]{buf: make([]T, capacity)}
}

// Push appends v, overwriting the oldest value when the buffer is full.
func (b *Buffer[T]) Push(v T) {
	b.buf[b.next] = v
	b.next++
	if b.next == len(b.buf) {
		b.next = 0
	}
	b.total++
}

// Total returns how many values were ever pushed.
func (b *Buffer[T]) Total() uint64 { return b.total }

// Dropped returns how many values were overwritten.
func (b *Buffer[T]) Dropped() uint64 {
	if b.total <= uint64(len(b.buf)) {
		return 0
	}
	return b.total - uint64(len(b.buf))
}

// Snapshot returns a copy of the retained values, oldest first (nil when
// nothing was pushed).
func (b *Buffer[T]) Snapshot() []T {
	if b.total < uint64(len(b.buf)) {
		return append([]T(nil), b.buf[:b.next]...)
	}
	out := make([]T, 0, len(b.buf))
	out = append(out, b.buf[b.next:]...)
	return append(out, b.buf[:b.next]...)
}

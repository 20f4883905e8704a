package runtime

import (
	"context"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"
)

// A proxy handle delivers fed events through Next in order, then reports
// the close reason — indistinguishable from a driver-backed batched handle.
func TestProxyHandleDeliverAndClose(t *testing.T) {
	h, f := NewProxyHandle(7, nil)
	if h.ID != 7 {
		t.Fatalf("ID = %d", h.ID)
	}
	if got := h.FinishReason(); got != "" {
		t.Fatalf("premature FinishReason %q", got)
	}

	go func() {
		f.Deliver(TokenEvent{ReqID: 7, Index: 0, Text: "a "})
		f.Deliver(
			TokenEvent{ReqID: 7, Index: 1, Text: "b "},
			TokenEvent{ReqID: 7, Index: 2, Text: "c ", Finished: true, Reason: FinishLength},
		)
		f.Close(FinishLength)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var got []TokenEvent
	for {
		evs := h.Next(ctx)
		if evs == nil {
			break
		}
		got = append(got, evs...)
	}
	if ctx.Err() != nil {
		t.Fatal("Next hung until timeout")
	}
	if len(got) != 3 {
		t.Fatalf("events = %d, want 3", len(got))
	}
	for i, ev := range got {
		if ev.Index != i || ev.ReqID != 7 {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	if !got[2].Finished || got[2].Reason != FinishLength {
		t.Fatalf("terminal event = %+v", got[2])
	}
	if got := h.FinishReason(); got != FinishLength {
		t.Fatalf("FinishReason = %q", got)
	}
	select {
	case <-h.Done():
	default:
		t.Fatal("Done not closed")
	}
}

// Abort injects the synthetic terminal event the driver would emit, and
// events fed after Close are dropped, not delivered.
func TestProxyHandleAbortAndPostCloseDeliver(t *testing.T) {
	h, f := NewProxyHandle(1, nil)
	f.Deliver(TokenEvent{ReqID: 1, Index: 0, Text: "x "})
	f.Abort(1, 1, FinishDisconnected)
	f.Deliver(TokenEvent{ReqID: 1, Index: 2, Text: "late "}) // dropped
	f.Close(FinishShutdown)                                  // idempotent: first reason wins

	ctx := context.Background()
	var got []TokenEvent
	for {
		evs := h.Next(ctx)
		if evs == nil {
			break
		}
		got = append(got, evs...)
	}
	if len(got) != 2 {
		t.Fatalf("events = %+v, want 2", got)
	}
	term := got[1]
	if !term.Finished || term.Reason != FinishDisconnected || term.Text != "" {
		t.Fatalf("terminal = %+v", term)
	}
	if got := h.FinishReason(); got != FinishDisconnected {
		t.Fatalf("FinishReason = %q (Close after Abort must not win)", got)
	}
}

// Handle.Cancel on a proxy handle invokes onCancel exactly once with
// FinishCancelled; the feeder then terminates the stream.
func TestProxyHandleCancel(t *testing.T) {
	var calls atomic.Int32
	var gotReason atomic.Value
	var f *ProxyFeeder
	h, feeder := NewProxyHandle(3, func(reason FinishReason) {
		calls.Add(1)
		gotReason.Store(reason)
		f.Abort(3, 0, reason)
	})
	f = feeder

	h.Cancel()
	h.Cancel() // idempotent
	if n := calls.Load(); n != 1 {
		t.Fatalf("onCancel calls = %d, want 1", n)
	}
	if r := gotReason.Load(); r != FinishCancelled {
		t.Fatalf("onCancel reason = %v", r)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	evs := h.Next(ctx)
	if len(evs) != 1 || !evs[0].Finished || evs[0].Reason != FinishCancelled {
		t.Fatalf("events = %+v", evs)
	}
	if h.Next(ctx) != nil {
		t.Fatal("stream not terminated")
	}
	if got := h.FinishReason(); got != FinishCancelled {
		t.Fatalf("FinishReason = %q", got)
	}
}

// Next honors its context while the feeder is silent (no hung consumers).
func TestProxyHandleNextContext(t *testing.T) {
	h, _ := NewProxyHandle(9, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if evs := h.Next(ctx); evs != nil {
		t.Fatalf("events = %+v, want nil on ctx expiry", evs)
	}
	if ctx.Err() == nil {
		t.Fatal("Next returned nil without ctx expiry")
	}
}

// A delivered slab is sized to its delivery: 2048 streams each holding one
// undelivered token keep well under 1 KiB apiece (handle, channels and
// slab; a 64-event slab alone was 4 KiB), and a consumer that falls behind
// still receives every event, in order, from one grown slab.
func TestPendingSlabSizedToDelivery(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; guard runs in normal builds")
	}
	const streams, limit = 2048, 1024
	heap := func() uint64 {
		var ms goruntime.MemStats
		low := ^uint64(0)
		for i := 0; i < 3; i++ {
			goruntime.GC()
			goruntime.ReadMemStats(&ms)
			low = min(low, ms.HeapAlloc)
		}
		return low
	}
	handles := make([]*Handle, streams)
	base := heap()
	for i := range handles {
		h, f := NewProxyHandle(int64(i), nil)
		f.Deliver(TokenEvent{ReqID: int64(i), Text: "a "})
		handles[i] = h
	}
	perStream := (float64(heap()) - float64(base)) / streams
	t.Logf("heap held per stream with one pending token = %.0f B", perStream)
	if perStream > limit {
		t.Fatalf("a stream with one pending token holds %.0f B (limit %d)", perStream, limit)
	}
	goruntime.KeepAlive(handles)

	h, f := NewProxyHandle(1, nil)
	const lag = 100
	for i := 0; i < lag; i++ {
		f.Deliver(TokenEvent{ReqID: 1, Index: i})
	}
	evs := h.Next(context.Background())
	if len(evs) != lag {
		t.Fatalf("lagging consumer got %d events, want %d", len(evs), lag)
	}
	for i, ev := range evs {
		if ev.Index != i {
			t.Fatalf("event %d has index %d", i, ev.Index)
		}
	}
}

// A feeder wakes the consumer only while it is parked in Next: deliveries
// to a consumer that is busy elsewhere leave no token in notify, so its next
// park waits for a real delivery instead of making an empty lap. A parked
// consumer takes the one token its wake sends.
func TestNoStaleWake(t *testing.T) {
	h, f := NewProxyHandle(3, nil)
	f.Deliver(TokenEvent{ReqID: 3, Index: 0, Text: "a "})
	f.Deliver(TokenEvent{ReqID: 3, Index: 1, Text: "b "})
	if evs := h.Next(context.Background()); len(evs) != 2 {
		t.Fatalf("one Next drained %d events, want 2", len(evs))
	}
	if n := len(h.notify); n != 0 {
		t.Fatalf("notify holds %d stale wakes after the drain", n)
	}

	got := make(chan int, 1)
	go func() { got <- len(h.Next(context.Background())) }()
	for parked := false; !parked; {
		time.Sleep(time.Millisecond)
		h.dmu.Lock()
		parked = h.waiting
		h.dmu.Unlock()
	}
	f.Deliver(TokenEvent{ReqID: 3, Index: 2, Text: "c "})
	if n := <-got; n != 1 {
		t.Fatalf("woken Next returned %d events, want 1", n)
	}
	if n := len(h.notify); n != 0 {
		t.Fatalf("notify holds %d wakes after a parked consumer took its own", n)
	}
}

// A one-event spare is refilled delivery after delivery without the pool:
// a Next under a done context hands the consumer's slab back as the spare
// and returns at once. A slab grown past spareEvents by a lagging consumer
// is not kept, and a closed stream keeps none.
func TestSpareSlabRefilled(t *testing.T) {
	h, f := NewProxyHandle(5, nil)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	first := &eventSlab{evs: make([]TokenEvent, 0, 1)}
	h.spare = first
	for i := 0; i < 16; i++ {
		f.Deliver(TokenEvent{ReqID: 5, Index: i})
		evs := h.Next(context.Background())
		if len(evs) != 1 || evs[0].Index != i {
			t.Fatalf("delivery %d read back as %+v", i, evs)
		}
		if h.cur != first {
			t.Fatalf("delivery %d went into another slab than the spare", i)
		}
		if h.Next(done) != nil || h.spare != first {
			t.Fatalf("after delivery %d the slab is not the spare again", i)
		}
	}
	f.Deliver(make([]TokenEvent, spareEvents+1)...)
	if evs := h.Next(context.Background()); len(evs) != spareEvents+1 {
		t.Fatalf("lagging delivery read back %d events, want %d", len(evs), spareEvents+1)
	}
	h.Next(done)
	if h.spare != nil {
		t.Fatalf("kept a spare of %d events, want the grown slab pooled", cap(h.spare.evs))
	}
	h.spare = &eventSlab{evs: make([]TokenEvent, 0, 1)}
	f.Close(FinishLength)
	if h.Next(context.Background()) != nil {
		t.Fatal("stream not terminated")
	}
	if h.spare != nil || h.cur != nil {
		t.Fatal("a closed stream still holds a slab")
	}
}

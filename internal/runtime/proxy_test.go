package runtime

import (
	"context"
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

package runtime

import "sync"

// ProxyFeeder feeds a Handle that is not backed by a local driver. The
// cluster's remote-replica transport adapts one SSE response stream into a
// Handle this way: tokens parsed off the wire are Delivered into the same
// pooled-slab path the local driver uses, so consumers (the HTTP frontend,
// the router's audit) cannot tell a remote stream from a local one.
//
// Deliver and Close are safe to call from one feeding goroutine
// concurrently with the consumer's Handle.Next/Cancel; Deliver must not be
// called concurrently with itself.
type ProxyFeeder struct {
	h         *Handle
	closeOnce sync.Once
}

// NewProxyHandle returns a Handle whose events are supplied by the
// returned feeder instead of a local driver. onCancel, when non-nil, is
// invoked at most once — from the first Handle.Cancel call — with the
// abort reason; the feeder side is then expected to terminate the stream
// and Close the handle.
func NewProxyHandle(id int64, onCancel func(FinishReason)) (*Handle, *ProxyFeeder) {
	h := &Handle{ID: id, onCancel: onCancel,
		done: make(chan struct{}), notify: make(chan struct{}, 1)}
	return h, &ProxyFeeder{h: h}
}

// Deliver appends events for the consumer's next Handle.Next call. It
// never blocks on the consumer (slabs grow as needed, exactly like the
// driver's emit path) and is a no-op after Close.
func (f *ProxyFeeder) Deliver(evs ...TokenEvent) {
	if len(evs) > 0 {
		f.h.deliver(evs...)
	}
}

// Close terminates the stream with the given reason: pending events remain
// drainable, then Handle.Next returns nil and Handle.FinishReason reports
// the reason. Idempotent — the first reason wins.
func (f *ProxyFeeder) Close(reason FinishReason) {
	f.closeOnce.Do(func() { f.h.terminate(reason) })
}

// Abort terminates a stream early exactly like the driver does: one
// synthetic, empty-Text terminal event carrying the reason (at the given
// output index), then Close.
func (f *ProxyFeeder) Abort(reqID int64, index int, reason FinishReason) {
	f.Deliver(TokenEvent{ReqID: reqID, Index: index, Finished: true, Reason: reason})
	f.Close(reason)
}

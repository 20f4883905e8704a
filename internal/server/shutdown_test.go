package server

import (
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// serveUntil runs ServeUntilSignal on a loopback listener and returns the
// base URL, the signal channel and the channel its result arrives on.
func serveUntil(t *testing.T, h http.Handler, drain func(context.Context), abort func()) (string, *http.Server, chan<- os.Signal, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	t.Cleanup(func() { srv.Close() })
	sig := make(chan os.Signal, 2) // both signals of the abort test fit unread
	result := make(chan error, 1)
	go func() { result <- ServeUntilSignal(srv, ln, sig, 10*time.Second, drain, abort) }()
	return "http://" + ln.Addr().String(), srv, sig, result
}

// A stream whose handler is still writing when the drain callback returns
// — the runtime has delivered its last slab, the handler has yet to flush
// it and [DONE] — must reach the client whole. Serve returns the moment
// Shutdown is called, and the binaries used to exit on that: the test
// stands in for the exit by closing every connection as soon as
// ServeUntilSignal returns.
func TestServeUntilSignalWaitsForHandlers(t *testing.T) {
	started, drained := make(chan struct{}), make(chan struct{})
	handler := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "data: first\n\n")
		w.(http.Flusher).Flush()
		close(started)
		<-drained
		time.Sleep(100 * time.Millisecond)
		io.WriteString(w, "data: last\n\ndata: [DONE]\n\n")
	})
	base, srv, sig, result := serveUntil(t, handler, func(context.Context) { close(drained) }, func() {})

	resp, err := http.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	<-started
	sig <- os.Interrupt
	if err := <-result; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	srv.Close() // the process exits here
	body, err := io.ReadAll(resp.Body)
	if err != nil || !strings.HasSuffix(string(body), "data: last\n\ndata: [DONE]\n\n") {
		t.Fatalf("client read %q, %v; want the stream through [DONE]", body, err)
	}
}

// A second signal during the drain calls abort, which is what ends a
// drain that would otherwise use its whole window.
func TestServeUntilSignalSecondSignalAborts(t *testing.T) {
	aborted := make(chan struct{})
	_, _, sig, result := serveUntil(t, http.NotFoundHandler(),
		func(ctx context.Context) {
			select {
			case <-aborted:
			case <-ctx.Done():
			}
		},
		func() { close(aborted) })
	sig <- os.Interrupt
	sig <- os.Interrupt
	select {
	case err := <-result:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second signal did not abort the drain")
	}
	select {
	case <-aborted:
	default:
		t.Fatal("shutdown finished without calling abort")
	}
}

package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"time"
)

// ServeUntilSignal serves srv on ln until a signal arrives on sig, then
// shuts down in two ordered steps under one timeout: drain (stop the
// backend taking work and let in-flight generations finish), then
// http.Server.Shutdown (stop accepting connections and wait for every
// handler to return). A second signal during the shutdown calls abort.
//
// It returns only after http.Server.Shutdown has returned. Serve itself
// returns http.ErrServerClosed the moment Shutdown is *called*, while
// handlers may still be flushing their last slab and [DONE]; a caller that
// exits on Serve's return cuts those responses short. The result is nil
// after a graceful shutdown, Serve's error otherwise.
func ServeUntilSignal(srv *http.Server, ln net.Listener, sig <-chan os.Signal, timeout time.Duration,
	drain func(context.Context), abort func()) error {
	served := make(chan struct{}) // Serve returned
	done := make(chan struct{})   // the shutdown sequence finished, or never started
	go func() {
		defer close(done)
		select {
		case <-sig:
		case <-served:
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		go func() {
			select {
			case <-sig:
				abort()
			case <-ctx.Done():
			}
		}()
		drain(ctx)
		_ = srv.Shutdown(ctx) // on timeout the caller exits with connections still open
	}()
	err := srv.Serve(ln)
	close(served)
	<-done
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

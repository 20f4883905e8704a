// Package profiling mounts the runtime profiling endpoints for the serving
// commands.
package profiling

import (
	"net/http"
	"net/http/pprof"
)

// WithPprof serves net/http/pprof's profiling handlers under /debug/pprof/
// and everything else from h — the -pprof flag of gllm-server and
// gllm-cluster. It lives in its own package so that only binaries offering
// the flag link net/http/pprof (whose import also registers handlers on
// http.DefaultServeMux).
func WithPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

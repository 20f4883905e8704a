package profiling

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestWithPprofServesProfilesAndFallsThrough(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	h := WithPprof(inner)
	for path, want := range map[string]int{
		"/debug/pprof/cmdline": http.StatusOK,
		"/debug/pprof/":        http.StatusOK,
		"/v1/completions":      http.StatusTeapot,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != want {
			t.Errorf("GET %s = %d, want %d", path, rec.Code, want)
		}
	}
}

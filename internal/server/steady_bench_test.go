package server

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/runtime"
	"gllm/internal/sched"
)

// benchWriter is a minimal streaming ResponseWriter: it counts delivered
// token chunks and otherwise discards the bytes. The real net/http chunked
// encoder allocates per flush, which would mask the serving path's own
// allocation behaviour, so the benchmark drives Server.ServeHTTP directly.
type benchWriter struct {
	header http.Header
	tokens *atomic.Int64
	wrote  int64
}

func (w *benchWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *benchWriter) Write(p []byte) (int, error) {
	// Every delivered token renders exactly one "text" field; [DONE] none.
	w.tokens.Add(int64(bytes.Count(p, benchTextField)))
	w.wrote += int64(len(p))
	return len(p), nil
}

func (w *benchWriter) WriteHeader(int) {}
func (w *benchWriter) Flush()          {}

var benchTextField = []byte(`"text":`)

func benchRuntime(b *testing.B) *runtime.Runtime {
	b.Helper()
	rt, err := runtime.Start(runtime.Config{
		Model:           model.Qwen25_14B,
		GPU:             gpu.L20,
		Topo:            network.IntraNode(4, network.PCIe),
		Scheduler:       sched.NewDefaultThrottle(),
		Async:           true,
		TimeScale:       0, // no emulated sleeps: measure the control path
		QueueDepth:      4096,
		AdmitKVFactor:   -1, // admission never throttles the generator
		WatchdogTimeout: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = rt.Close() })
	return rt
}

// BenchmarkServeSteadyState drives the full live path — HTTP handler →
// runtime submit → scheduler → pipelined micro-batch steps → token delivery
// → SSE encode — with streaming completions and reports steady-state
// tokens/sec and allocs/token. b.N counts delivered tokens, so ns/op and
// allocs/op read directly as per-token figures. The committed yardstick for
// this regime is the benchmark/ workload decode_stream (`make bench`).
func BenchmarkServeSteadyState(b *testing.B) {
	const (
		streams   = 16  // concurrent SSE clients
		maxTokens = 256 // tokens per completion
	)
	rt := benchRuntime(b)
	srv := New(rt, "bench-model")
	body := fmt.Sprintf(`{"prompt_len":128,"max_tokens":%d,"stream":true}`, maxTokens)

	var delivered atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &benchWriter{tokens: &delivered}
			for delivered.Load() < int64(b.N) {
				req, err := http.NewRequest(http.MethodPost, "/v1/completions",
					strings.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				srv.ServeHTTP(w, req)
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	tokens := float64(delivered.Load())
	b.ReportMetric(tokens/b.Elapsed().Seconds(), "tokens/sec")
	// Overshoot factor: streams finish whole completions, so slightly more
	// than b.N tokens are produced; allocs/op and ns/op stay per-token
	// figures within that margin.
	b.ReportMetric(tokens/float64(b.N), "overshoot")
}

package engine

import (
	"runtime"
	"testing"
	"time"

	"gllm/internal/sched"
)

// A kept Result must not keep its run alive: the collector it hands out is
// allocated apart from the pool, the KV manager and the event heap.
func TestResultDoesNotPinRun(t *testing.T) {
	poolFreed := make(chan struct{})
	cfg := testConfig(sched.NewDefaultThrottle(), GLLMRuntime)
	cfg.Observer = func(p *sched.Pool, _ sched.Scheduler) BatchObserver {
		runtime.SetFinalizer(p, func(*sched.Pool) { close(poolFreed) })
		return nil
	}
	res, err := RunPipeline(cfg, shortTrace(1, 2, 5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	for try := 0; ; try++ {
		runtime.GC() // finalizers run on their own goroutine after a cycle
		select {
		case <-poolFreed:
		case <-time.After(100 * time.Millisecond):
			if try < 20 {
				continue
			}
			t.Fatal("the run's pool is still reachable while only the Result is held")
		}
		break
	}
	if res.Collector.Count() != res.Requests {
		t.Fatalf("collector holds %d records, want %d", res.Collector.Count(), res.Requests)
	}
}

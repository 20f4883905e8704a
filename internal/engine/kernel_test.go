package engine

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"gllm/internal/core"
	"gllm/internal/obs"
	"gllm/internal/request"
	"gllm/internal/sched"
	"gllm/internal/sim"
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

// The simulator's counterpart of the live driver's
// TestSteadyStateAllocationFree: once every resident decodes, an iteration —
// Schedule, prep, every stage and hop, Complete, retire — allocates nothing,
// under every policy and on both strategies. The arithmetic of the bound:
// the batch and its slices are recycled through Pool.PutBatch (0), the
// slot's callbacks were bound by its first batch (0), sim.Resource starts
// and queues jobs in place (0), both of the clock's queues have reached
// their size (0), and the per-token KV append lands in a page table that
// 1 030 prompt tokens grew to 128 blocks of capacity, enough for 1 018 more
// (0); the run keeps no per-batch log of its own. At the parent
// of the change that added this test the same 256 iterations cost 4 544
// allocations on the pipeline (a batch and its slices, three closures per
// stage, one per prep) and 2 048 on the token-parallel group.
func TestSteadyStateIterationAllocationFree(t *testing.T) {
	const residents, prompt, warm, measured = 32, 1030, 64, 256
	strategies := map[string]func(r *run, layers []int) strategy{
		"pipeline": func(r *run, layers []int) strategy { return newChain(r, "stage", 0, layers) },
		"tokenpar": func(r *run, _ []int) strategy {
			return &tknpGroup{ranks: 4, rootTP: 2, group: sim.NewResource(r.eng, "tknp-group")}
		},
	}
	for _, name := range []string{"sarathi", "vllm-ve", "td-pipe", "orca", "batch-level", "gllm", "gllm-no-wt", "gllm-no-ut"} {
		for engine, build := range strategies {
			for _, rt := range []RuntimeModel{GLLMRuntime, VLLMRuntime} {
				s, err := sched.ByName(name, 2048, core.DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				cfg := testConfig(s, rt)
				r, err := newRun(&cfg)
				if err != nil {
					t.Fatal(err)
				}
				layers := cfg.Model.StageLayers(4)
				slots := 4
				if engine == "tokenpar" {
					slots = 1
				}
				l := r.addLoop(r.cost.KVCapacityTokensPP(layers, cfg.MemUtil), slots, s, build(r, layers))
				r.total = residents
				for i := 0; i < residents; i++ {
					l.pool.Add(request.New(int64(i), 0, prompt, 1<<20))
				}
				iterate := func(n int) {
					for target := r.injections + n; r.injections < target; {
						if !r.eng.Step() {
							t.Fatalf("%s/%s/%s: clock ran dry after %d injections: %v", engine, name, rt.Name, r.injections, r.aborted)
						}
					}
				}
				l.fill()
				for l.pool.PrefillQueueLen() > 0 {
					iterate(1)
				}
				iterate(warm)
				if avg := testing.AllocsPerRun(2, func() { iterate(measured) }); avg != 0 {
					t.Errorf("%s/%s/%s: %.0f allocations per %d steady-state iterations, want 0", engine, name, rt.Name, avg, measured)
				}
			}
		}
	}
}

var errPlanted = errors.New("planted observer failure")

// failAfterThree fails its run once three non-empty batches were scheduled.
type failAfterThree struct{ batches int }

func (o *failAfterThree) BeforeSchedule(time.Duration) {}
func (o *failAfterThree) AfterSchedule(b *sched.Batch, _ time.Duration) {
	if !b.Empty() {
		o.batches++
	}
}
func (o *failAfterThree) AfterComplete(*sched.Batch, []*request.Request, time.Duration) {}
func (o *failAfterThree) Final(time.Duration) error                                     { return nil }
func (o *failAfterThree) Err() error {
	if o.batches >= 3 {
		return errPlanted
	}
	return nil
}

// neverSchedules admits requests and never runs one: a scheduling deadlock.
type neverSchedules struct{}

func (neverSchedules) Name() string                                         { return "never" }
func (neverSchedules) Schedule(p *sched.Pool, _ time.Duration) *sched.Batch { return p.GetBatch() }

// A run that cannot finish its requests must return its error at once, with
// Figure 4's probes installed — a batch log in front of the failing
// observer, and a span recorder: after an observer aborts it, and when
// nothing is left pending (a scheduling deadlock).
func TestSampledRunReturnsItsError(t *testing.T) {
	observed := testConfig(sched.NewDefaultThrottle(), GLLMRuntime)
	var log BatchLog
	observed.Observer = log.Observer(func(*sched.Pool, sched.Scheduler) BatchObserver { return &failAfterThree{} })
	for _, tc := range []struct {
		name string
		cfg  Config
		want func(error) bool
	}{
		{"observer", observed, func(err error) bool { return errors.Is(err, errPlanted) }},
		{"deadlock", testConfig(neverSchedules{}, GLLMRuntime), func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "deadlock")
		}},
	} {
		tc.cfg.Spans = obs.NewRecorder(tc.cfg.Topo.GPUs(), 0)
		done := make(chan error, 1)
		go func() {
			_, err := RunPipeline(tc.cfg, shortTrace(1, 2, 5*time.Second))
			done <- err
		}()
		select {
		case err := <-done:
			if !tc.want(err) {
				t.Errorf("%s: err = %v", tc.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the run has not returned after 10s", tc.name)
		}
	}
}

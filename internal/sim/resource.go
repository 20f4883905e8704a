package sim

import "time"

// Resource is a single-server FIFO queue living inside an Engine: at most
// one job is in service at a time and waiting jobs are served in submission
// order. It models exclusive devices such as a GPU pipeline stage or a
// network link, and tracks cumulative busy time for utilization accounting.
type Resource struct {
	eng       *Engine
	name      string
	busy      bool
	cur       job    // in service while busy
	finish    func() // r.complete, bound once: starting a job allocates nothing
	queue     []job  // waiting jobs, oldest first
	busySince time.Duration
	totalBusy time.Duration
}

type job struct {
	dur  time.Duration
	done func()
}

// NewResource creates a resource bound to eng.
func NewResource(eng *Engine, name string) *Resource {
	r := &Resource{eng: eng, name: name}
	r.finish = r.complete
	return r
}

// Name returns the resource's label.
func (r *Resource) Name() string { return r.name }

// Busy reports whether a job is currently in service.
func (r *Resource) Busy() bool { return r.busy }

// QueueLen returns the number of jobs waiting (excluding the one in service).
func (r *Resource) QueueLen() int { return len(r.queue) }

// Submit enqueues a job requiring dur of service; done (may be nil) runs at
// completion. Zero-duration jobs are legal and complete via a zero-delay
// event, preserving event ordering.
func (r *Resource) Submit(dur time.Duration, done func()) {
	if dur < 0 {
		panic("sim: Submit with negative duration")
	}
	j := job{dur: dur, done: done}
	if r.busy {
		r.queue = append(r.queue, j)
		return
	}
	r.start(j)
}

func (r *Resource) start(j job) {
	r.busy = true
	r.busySince = r.eng.Now()
	r.cur = j
	r.eng.After(j.dur, r.finish)
}

// complete ends the job in service, runs its done callback and starts the
// next waiting job unless done already put one in service.
func (r *Resource) complete() {
	r.totalBusy += r.eng.Now() - r.busySince
	r.busy = false
	done := r.cur.done
	r.cur = job{}
	if done != nil {
		done()
	}
	if len(r.queue) > 0 && !r.busy {
		next := r.queue[0]
		// Shift down rather than reslice: the queue keeps its array (no
		// regrowth at steady state) and no popped job's closure stays
		// reachable in a dead prefix. Queues are as short as the batches
		// in flight, so the copy is a few words.
		n := copy(r.queue, r.queue[1:])
		r.queue[n] = job{}
		r.queue = r.queue[:n]
		r.start(next)
	}
}

// BusyTime returns the cumulative time spent in service, including the
// in-progress portion of the current job.
func (r *Resource) BusyTime() time.Duration {
	t := r.totalBusy
	if r.busy {
		t += r.eng.Now() - r.busySince
	}
	return t
}

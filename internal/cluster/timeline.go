// Cluster timeline: a background sampler recording every replica's
// pressure and health into a fixed ring, served by the frontend's
// /cluster/timeline endpoint. The ring answers "what did the cluster look
// like over the last N seconds" — which replica saturated first, when a
// drain started shedding load, how long a remote stayed unreachable —
// without an external time-series database.
package cluster

import (
	"sync"
	"time"

	"gllm/internal/ring"
)

// TimelineSample is one replica's state at one sampling instant.
type TimelineSample struct {
	UnixNano int64   `json:"unix_nano"`
	Replica  string  `json:"replica"`
	Health   string  `json:"health"`
	KVFree   float64 `json:"kv_free"`
	Resident int     `json:"resident"`
	QueueLen int     `json:"queue_len"`
	Draining bool    `json:"draining"`
}

// DefaultTimelineCapacity bounds the sample ring (~85 min of history for
// 4 replicas at the default 1 s interval).
const DefaultTimelineCapacity = 1 << 14

// Timeline samples a router's replicas on a fixed interval into a ring.
type Timeline struct {
	router   *Router
	interval time.Duration

	mu   sync.Mutex
	ring ring.Buffer[TimelineSample]

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewTimeline starts a sampler over the router's replicas. interval
// defaults to 1 s, capacity to DefaultTimelineCapacity. Stop it with
// Stop; an abandoned timeline leaks one goroutine and its ring.
func NewTimeline(r *Router, interval time.Duration, capacity int) *Timeline {
	if interval <= 0 {
		interval = time.Second
	}
	if capacity <= 0 {
		capacity = DefaultTimelineCapacity
	}
	t := &Timeline{
		router:   r,
		interval: interval,
		ring:     ring.New[TimelineSample](capacity),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	t.sampleOnce(time.Now()) // the endpoint has data from the first request on
	go t.loop()
	return t
}

func (t *Timeline) loop() {
	defer close(t.done)
	tick := time.NewTicker(t.interval)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case now := <-tick.C:
			t.sampleOnce(now)
		}
	}
}

// sampleOnce records one sample per active replica. Pressure reads are
// the same lightweight view routing uses — cached for remotes, so a
// sampling tick never blocks on a dead endpoint.
func (t *Timeline) sampleOnce(now time.Time) {
	reps := t.router.Replicas()
	samples := make([]TimelineSample, 0, len(reps))
	for _, rep := range reps {
		p := rep.Pressure()
		samples = append(samples, TimelineSample{
			UnixNano: now.UnixNano(),
			Replica:  rep.ID,
			Health:   p.Health,
			KVFree:   p.KVFree,
			Resident: p.Resident,
			QueueLen: p.QueueLen,
			Draining: rep.Draining(),
		})
	}
	t.mu.Lock()
	for _, s := range samples {
		t.ring.Push(s)
	}
	t.mu.Unlock()
}

// Samples returns the retained samples, oldest first.
func (t *Timeline) Samples() []TimelineSample {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Snapshot()
}

// Total returns how many samples were ever recorded.
func (t *Timeline) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Total()
}

// Stop halts the sampler (idempotent; blocks until the loop exits).
func (t *Timeline) Stop() {
	t.once.Do(func() { close(t.stop) })
	<-t.done
}

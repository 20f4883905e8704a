// This file is an external test package (sched_test): it drives the
// scheduler through internal/invariant's checker, and invariant imports
// sched — an in-package test would be an import cycle.
package sched_test

import (
	"testing"
	"time"

	"gllm/internal/core"
	"gllm/internal/invariant"
	"gllm/internal/kvcache"
	"gllm/internal/request"
	"gllm/internal/sched"
)

// fuzzPolicies are every sched.ByName policy: every caller of the pool's
// prefill and decode walks.
var fuzzPolicies = []string{
	"gllm", "gllm-no-wt", "gllm-no-ut",
	"sarathi", "gllm-ck", "vllm-ve", "td-pipe", "orca", "batch-level",
}

// FuzzThrottleSchedule decodes a pool configuration and a request trace
// from raw bytes and drives them through every policy's Schedule under the
// full invariant checker, with a pipeline-depth-bounded FIFO of in-flight
// batches (exactly the pipeline engine's injection discipline). Any
// violation — budget overrun, token gap/overlap, KV drift, FIFO inversion,
// starvation — fails the run, and so does a stall: an empty batch with
// nothing in flight while requests stay resident, which an engine would
// never schedule past.
func FuzzThrottleSchedule(f *testing.F) {
	f.Add([]byte("\x02\x10\x40\x04" + "\x20\x04\x30\x02\x10\x08"))
	f.Add([]byte("\x01\x08\x08\x01" + "\x7f\x01\x7f\x01\x7f\x01\x7f\x01"))
	f.Add([]byte("\x03\x30\xff\x07" + "\x40\x10\x08\x20\x60\x01"))
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x01, 0x01})
	// KVThresh boundary seed: 40 KV blocks (data[1]=0x20) make an exact 5%
	// free rate (2/40 == KVThresh) reachable, exercising the at-or-below
	// prefill suspension gate under heavy occupancy.
	f.Add([]byte("\x02\x20\x30\x02" + "\x5f\x08\x5f\x08\x5f\x08\x5f\x08\x10\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		depth := 1 + int(data[0])%4
		blockSize := 8
		kvBlocks := 8 + int(data[1])%48 // 64..440 KV tokens
		params := core.DefaultParams()
		params.MaxP = 16 + int(data[2])
		if params.MinP > params.MaxP {
			params.MinP = params.MaxP
		}
		params.IterT = 1 + int(data[3])%8

		// Remaining byte pairs become requests, capped so each fits the KV
		// beside the pool's one-block admission watermark — whole-prompt
		// policies admit a prompt only in one piece.
		type spec struct{ prompt, out int }
		maxReq := (kvBlocks - 1) * blockSize
		var specs []spec
		for i := 4; i+1 < len(data) && len(specs) < 64; i += 2 {
			prompt := 1 + int(data[i])%96
			out := 1 + int(data[i+1])%24
			if prompt+out > maxReq {
				prompt = maxReq - out
			}
			specs = append(specs, spec{prompt, out})
		}
		if len(specs) == 0 {
			return
		}

		for _, name := range fuzzPolicies {
			s, err := sched.ByName(name, params.MaxP, params)
			if err != nil {
				t.Fatal(err)
			}
			pool := sched.NewPool(kvcache.New(int64(kvBlocks*blockSize), blockSize), depth)
			// The checker's starvation bound is a loose 10 000 batches:
			// fuzzed configs legitimately build deep queues (a 64-token KV
			// serving 56-token requests drains one at a time), so a tight
			// liveness bound would flag fair FIFO waits. Starvation proper
			// is covered by the invariant harness's sized workloads.
			chk := invariant.New(pool, s)

			var inflight []*sched.Batch
			now := time.Duration(0)
			next := 0
			for step := 0; step < 2000; step++ {
				if next < len(specs) && step%2 == 0 {
					pool.Add(request.New(int64(next), 0, specs[next].prompt, specs[next].out))
					next++
				}
				chk.BeforeSchedule(now)
				b := s.Schedule(pool, now)
				chk.AfterSchedule(b, now)
				if b.Empty() && len(inflight) == 0 && !pool.Idle() {
					t.Fatalf("%s step %d: empty batch with nothing in flight and %d+%d requests resident",
						name, step, pool.PrefillQueueLen(), pool.RunningDecode())
				}
				if !b.Empty() {
					inflight = append(inflight, b)
				}
				// Retire the oldest batch when the pipeline is full or idle.
				if len(inflight) > 0 && (b.Empty() || len(inflight) >= depth) {
					oldest := inflight[0]
					inflight = inflight[1:]
					now += time.Millisecond
					finished := pool.Complete(oldest, now)
					chk.AfterComplete(oldest, finished, now)
				}
				if err := chk.Err(); err != nil {
					t.Fatalf("%s step %d: %v", name, step, err)
				}
				if next >= len(specs) && pool.Idle() && len(inflight) == 0 {
					break
				}
			}
			if err := chk.Final(now); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	})
}

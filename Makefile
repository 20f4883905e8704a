GO ?= go
FUZZTIME ?= 10s

.PHONY: check tier1 race bench-selftest fuzz-smoke trace-smoke cluster-smoke remote-smoke cluster-trace-smoke tknp-smoke fmt-check bench bench-trace bench-compare bench-tknp

# check runs everything a PR must pass: tier-1 build+tests (which include
# the zero-allocation guards of the driver's per-iteration path:
# TestSteadyStateAllocationFree in kvcache, TestScheduleCompleteAllocationFree
# in sched), the race tier (see ROADMAP.md), gofmt enforcement, the
# benchmark's self-test, a short fuzz smoke of both fuzz targets, the
# trace-out round-trip smoke, and the cluster smokes (in-process,
# remote-transport, and distributed-tracing).
check: tier1 race fmt-check bench-selftest fuzz-smoke trace-smoke cluster-smoke remote-smoke cluster-trace-smoke tknp-smoke

tier1:
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) vet ./...
	$(GO) test -race ./internal/experiments/... ./internal/sim/... ./internal/sched/... ./internal/runtime/... ./internal/server/... ./internal/metrics/... ./internal/obs/... ./internal/cluster/... ./internal/engine/...

# bench-selftest runs the benchmark's own tests (benchmark/ is its own
# module, so tier1's ./... never sees them).
bench-selftest:
	$(GO) test -C benchmark .

# fmt-check fails when any file needs gofmt.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# -run='^$$' skips the regular tests so only the fuzz engine runs.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzKVAllocFree -fuzztime=$(FUZZTIME) ./internal/kvcache
	$(GO) test -run='^$$' -fuzz=FuzzThrottleSchedule -fuzztime=$(FUZZTIME) ./internal/sched

# bench runs the repo's one benchmark (BENCHMARK.json, benchmark/README.md):
# all four workloads, end-to-end metrics only. bench-trace adds the
# per-layer ledger, the budget tables and out/trace_<workload>.json.
# BENCH_ARGS passes flags through, e.g.
#   make bench BENCH_ARGS='-workload long_prompt -seed 101 -out a.json'
bench:
	$(GO) run -C benchmark . $(BENCH_ARGS)

bench-trace:
	$(GO) run -C benchmark . -trace 1 $(BENCH_ARGS)

# bench-compare A=before.json B=after.json prints the verdict table for two
# result sets written with -out (paths relative to benchmark/).
bench-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-compare A=before.json B=after.json"; exit 2; }
	$(GO) run -C benchmark . -compare $(A) $(B)

# cluster-smoke boots a 3-replica cluster on a loopback port, replays
# multi-turn prefix-group traffic over the full HTTP/SSE path, drains a
# replica mid-flight through /cluster/drain, and fails unless every stream
# delivered exactly its requested tokens and no replica leaked KV.
cluster-smoke:
	$(GO) run ./cmd/gllm-cluster -selfcheck

# remote-smoke exercises the remote-replica HTTP transport against live
# processes: 2 gllm-server children plus 1 in-process replica behind one
# router; drains a remote mid-flight (audited, zero dropped tokens), kills
# the other mid-stream (handle must finish "disconnected", survivors
# unaffected), then revives it on the same port and verifies the prober
# flips it back to routable.
remote-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/gllm-server ./cmd/gllm-server && \
	$(GO) run ./cmd/gllm-cluster -selfcheck-remote -server-bin $$tmp/gllm-server

# tknp-smoke runs the quick token-parallel regime sweep and fails unless
# TKNP wins the largest batch x longest context cell on decode throughput.
tknp-smoke:
	$(GO) run ./cmd/gllm-experiments -selfcheck

# bench-tknp regenerates results/BENCH_tknp_regimes.json: TP-16, PP-16,
# disaggregated 8P8D and TKNP (root TP 8) over the full paper-scale batch x
# context grid on the 16 x A100-40G NVLink extension testbed.
bench-tknp:
	$(GO) run ./cmd/gllm-experiments -run tknp -scale paper -out results/

# cluster-trace-smoke exercises cluster-wide distributed tracing and
# metrics federation end to end: 2 gllm-server children behind a
# remote-only router, SSE traffic through the frontend, then the federated
# /metrics page is parsed and the merged cross-process Chrome trace is
# validated twice — inline by the selfcheck and again by gllm-tracecheck.
cluster-trace-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/gllm-server ./cmd/gllm-server && \
	$(GO) build -o $$tmp/gllm-tracecheck ./cmd/gllm-tracecheck && \
	$(GO) run ./cmd/gllm-cluster -selfcheck-trace -server-bin $$tmp/gllm-server -trace-out $$tmp/req.json && \
	$$tmp/gllm-tracecheck -requests $$tmp/req.json

# trace-smoke round-trips a short simulation's -trace-out file through the
# obs Chrome-trace decoder for each engine gllm-sim drives — pipeline (4
# stage lanes), tensor (one fused device) and token-parallel (one lane per
# rank); gllm-tracecheck exits nonzero on a bad trace or a lane mismatch.
trace-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	for run in pp:4 tp:1 tknp:4; do \
		$(GO) run ./cmd/gllm-sim -parallelism $${run%:*} -rate 2 -window 5s -trace-out $$tmp/spans.json >/dev/null && \
		$(GO) run ./cmd/gllm-tracecheck -stages $${run#*:} $$tmp/spans.json || exit 1; \
	done

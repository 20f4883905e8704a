GO ?= go
FUZZTIME ?= 10s

.PHONY: check tier1 race bench-selftest fuzz-smoke fmt-check bench bench-trace bench-compare bench-tknp

# check runs everything a PR must pass: tier-1 build+tests (which include
# the zero-allocation guards of the driver's per-iteration path:
# TestSteadyStateAllocationFree in kvcache, TestScheduleCompleteAllocationFree
# in sched), the race tier (see ROADMAP.md), gofmt enforcement, the
# benchmark's self-test and a short fuzz smoke of every fuzz target. The
# end-to-end cluster smokes (drain mid-flight, kill and revive a remote
# gllm-server process, merged cross-process traces) are Go tests in
# internal/cluster, so tier-1 and the race tier both run them.
check: tier1 race fmt-check bench-selftest fuzz-smoke

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

# fmt-check fails when any file needs gofmt, when the newest CHANGES.md
# entry (the last line starting "PR <n>" through the end of the file) is
# more than a reader can scan: 6144 bytes (older entries are exempt), or
# when README.md + DESIGN.md + EXPERIMENTS.md together outgrow DOCS_BYTES.
# DOCS_BYTES only goes down: a change that shrinks the docs lowers it.
DOCS_BYTES = 117090

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	@n=$$(LC_ALL=C awk '/^PR [0-9]+/ {n = 0} {n += length($$0) + 1} END {print n}' CHANGES.md); \
	if [ "$$n" -gt 6144 ]; then echo "CHANGES.md: newest entry is $$n bytes, budget 6144"; exit 1; fi
	@n=$$(cat README.md DESIGN.md EXPERIMENTS.md | wc -c); \
	if [ "$$n" -gt $(DOCS_BYTES) ]; then echo "docs: README+DESIGN+EXPERIMENTS are $$n bytes, budget $(DOCS_BYTES)"; exit 1; fi

# Ten seconds of each fuzz target (target:package). -run='^$$' skips the
# regular tests so only the fuzz engine runs; the seeds run in tier1.
FUZZ_TARGETS = FuzzKVAllocFree:./internal/kvcache FuzzThrottleSchedule:./internal/sched \
	FuzzParseExposition:./internal/metrics FuzzChunkReader:./internal/server \
	FuzzChromeRoundTrip:./internal/obs FuzzParseTraceparent:./internal/obs \
	FuzzEngineOrder:./internal/sim FuzzCompletionRequest:./internal/server \
	FuzzSSEReader:./internal/sse FuzzDecodeCompletion:./internal/server \
	FuzzStagesBook:./internal/engine

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz $${t%%:*} ($${t#*:})"; \
		$(GO) test -run='^$$' -fuzz="$${t%%:*}" -fuzztime=$(FUZZTIME) "$${t#*:}" || exit 1; \
	done

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

# bench-tknp regenerates results/BENCH_tknp_regimes.json: TP-16, PP-16,
# disaggregated 8P8D and TKNP (root TP 8) over the full paper-scale batch x
# context grid on the 16 x A100-40G NVLink extension testbed.
bench-tknp:
	$(GO) run ./cmd/gllm-experiments -run tknp -scale paper -out results/

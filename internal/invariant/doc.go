// Package invariant is the deterministic invariant-checking harness for the
// scheduler core: a pluggable auditor (Checker) that hooks into a pool's
// engine.Step — every simulated engine's loop via engine.Config.Observer,
// and the live runtime's driver in that package's tests. Its test suite
// adds a property harness (Run) that drives seeded randomized workloads
// through every scheduler × engine combination, a trace shrinker (Shrink)
// that reduces failures to minimal reproducers, and proves the detector
// works by mutation: the broken schedulers of package mutant (over-budget
// batches, leaked KV blocks, reordered FIFO admission, an eviction that
// forgets the #WP counter) must each be flagged, on the simulator here and
// on the live runtime there.
//
// # Invariant catalogue
//
// token-conservation — Every prefill token of a request is scheduled
// exactly once per prefill pass: each chunk starts exactly where committed
// plus in-flight tokens end (no gap, no overlap), never exceeds the prefill
// target, chunks complete FIFO, and a request enters decode only with its
// target fully committed. A preemption (recompute, §3.2's KV-pressure
// fallback) legally restarts the pass with the generated tokens folded into
// a new target. Motivated by the paper's chunked-prefill accounting (§3.1,
// Figure 6): a lost or doubled chunk silently corrupts every downstream
// latency figure.
//
// decode-conservation — A decoding request has at most one decode step in
// flight, steps complete only after being scheduled, and a request finishes
// with exactly OutputLen generated tokens after exactly the expected number
// of decode completions. Motivated by §2.1's iteration-level batching: one
// token per sequence per iteration.
//
// batch-budget — For schedulers declaring a bound (sched.TokenBounded),
// Batch.Tokens() never exceeds the bound computed from the pre-schedule
// pool state: the fixed budget for Sarathi-style policies, the eq. 1–4
// throttling budgets (prefill: min of #WT and #UT throttles; decode:
// ceil(#RD / #PP_depth)) for gLLM; when the KV gate closes the prefill
// term, the larger of the decode budget and eq. 1 alone (the stalled-pool
// fallback). This is the paper's central claim (§3.2, §3.3): token
// throttling keeps every micro-batch under its feedback-driven budget.
//
// kv-residency — Each pool-resident request holds exactly the KV tokens
// its lifecycle position implies: committed plus in-flight prefill while
// prefilling; context length (±the in-flight decode slot, +1 after a
// resumed recompute or migration, which recompute the full context) while
// decoding; an attached prefix, or nothing, while waiting. Motivated by
// §2.1/§3.2: KV pages are allocated at schedule time and freed at
// completion, so any drift is a leak or a double-free in disguise.
//
// kv-ownership — Every sequence resident in a pool's KV cache belongs to a
// request of that pool, or is explicitly marked as an in-flight migration
// hand-off (disaggregated prefill→decode transfer, §2.2).
//
// kv-internal — kvcache.Manager.Verify passes at every audited step (block
// tables consistent with token counts, refcounts consistent with the free
// list) and used blocks stay within [0, TotalBlocks].
//
// kv-leak — A finished request holds zero KV tokens, and so does one
// aborted while quiescent — the live runtime's cancellation, which the
// simulator never produces. At end of run no orphan sequence remains
// resident.
//
// prefill-fifo — For schedulers promising FCFS admission
// (sched.FIFOPrefill), no request receives a prefill chunk while an
// earlier, eligible request in the pre-schedule queue goes unserved. A
// request evicted during the same Schedule call is not eligible, nor is one
// holding no KV when that call found the pool stalled with every block held
// (the stall rule, DESIGN.md §8). Motivated by §3.2: throttling must
// preserve first-come first-served fairness while rebalancing token counts.
//
// no-starvation — No resident request goes entirely unserved for more than
// 10 000 consecutive non-empty batches (FIFO schedulers only; Orca-style cohort policies starve by design and are exempt).
//
// waiting-prefill — The pool's #WP (sched.Pool.WaitingPrefillTokens, an
// incrementally maintained counter) equals the sum of RemainingPrefill
// over the prefill queue at every batch boundary. #WP is the input of the
// waiting-tokens throttle (eq. 1), so a missed update at any of its
// mutation sites — admission, chunk scheduling, prefix attach, eviction,
// preemption, abort — would silently mis-budget every later batch.
//
// monotonic-time — Virtual time observed at the hooks never decreases,
// end to end across every schedule/complete cycle of internal/sim's event
// loop.
package invariant

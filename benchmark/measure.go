package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gllm/internal/metrics"
	"gllm/internal/stats"
)

// This file turns raw outcomes (live.go, sim.go, probes.go) into the named
// metrics of BENCHMARK.json and the per-workload budget table.

func newRun(name string, o options) *run {
	return &run{Workload: name, Seed: o.seed, Seconds: o.seconds, Samples: make(map[string]int)}
}

// finish sets the verdict once every phase has been accounted.
func (r *run) finish() {
	r.Correct = r.Failed == 0 && len(r.Errors) == 0
	if r.Attempted > 0 {
		r.FailShare = float64(r.Failed) / float64(r.Attempted)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const mib = 1 << 20

// liveEndToEnd computes the six end-to-end metrics of one untraced window.
func liveEndToEnd(r *run, out *liveOutcome) map[string]float64 {
	w := out.b.at.Sub(out.a.at).Seconds()
	good := (out.b.completed - out.b.failed) - (out.a.completed - out.a.failed)
	r.Samples["ttft_ms_p50"] = len(out.ttft)
	r.Samples["tpot_us_p50"] = len(out.tpot)
	return map[string]float64{
		"setup_s":      out.setup.Seconds(),
		"tokens_per_s": float64(out.b.tokens-out.a.tokens) / w,
		"req_per_s":    float64(good) / w,
		"ttft_ms_p50":  quantile(out.ttft, 0.5) / 1e6,
		"tpot_us_p50":  quantile(out.tpot, 0.5) / 1e3,
		"live_heap_mb": float64(out.a.liveHeap) / mib,
	}
}

func (r *run) account(out *liveOutcome) {
	r.Attempted += out.attempted
	r.Failed += out.failed
	r.Errors = append(r.Errors, out.errs...)
}

func measureLive(spec liveSpec, o options, window time.Duration, probes *probeSet) (*run, error) {
	r := newRun(spec.name, o)
	repeats := setupRepeats
	if o.trace {
		repeats = 1
	}
	base, err := runLive(spec, o.seed, window, nil, repeats, 0)
	if err != nil {
		return nil, err
	}
	r.account(base)
	if r.EndToEnd, err = emit(endToEndDefs, liveEndToEnd(r, base)); err != nil {
		return nil, err
	}
	if o.trace {
		tr := newTracer()
		traced, err := runLive(spec, o.seed, window, tr, 1, 0)
		if err != nil {
			return nil, err
		}
		r.account(traced)
		rss := peakRSSMiB()
		pm, err := probes.get()
		if err != nil {
			return nil, err
		}
		layers := zeroLayers(pm)
		layers["process.peak_rss_mb"] = rss
		liveLayers(r, layers, spec, base, traced)
		if r.PerLayer, err = emit(perLayerDefs, layers); err != nil {
			return nil, err
		}
		r.Budget = liveBudget(layers, base, traced)
		if err := writeTrace(tr, spec.name); err != nil {
			return nil, err
		}
	}
	r.finish()
	return r, nil
}

// zeroLayers starts a per-layer set: every metric present, the probes'
// values filled in, in-situ metrics of layers a workload never enters at 0.
func zeroLayers(probes map[string]float64) map[string]float64 {
	m := make(map[string]float64, len(perLayerDefs))
	for _, d := range perLayerDefs {
		m[d.name] = 0
	}
	for k, v := range probes {
		m[k] = v
	}
	return m
}

// peakRSSMiB reads VmHWM from /proc/self/status (0 where there is none).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// schedLayers fills the in-situ sched.* metrics; capacityNs is the CPU time
// the window offered (wall × cores for live runs, host time for the sweep).
func schedLayers(m map[string]float64, c layerCounts, capacityNs float64) {
	m["sched.schedule_ns"] = ratio(float64(c[schedNs]), float64(c[schedCalls]))
	m["sched.schedule_share"] = ratio(float64(c[schedNs]), capacityNs)
	m["sched.empty_batch_share"] = ratio(float64(c[schedEmpty]), float64(c[schedCalls]))
	if n := float64(c[schedCalls] - c[schedEmpty]); n > 0 {
		mean := float64(c[schedTokens]) / n
		m["sched.batch_tokens_mean"] = mean
		if v := float64(c[schedTokensSq])/n - mean*mean; v > 0 && mean > 0 {
			m["sched.batch_tokens_cv"] = math.Sqrt(v) / mean
		}
	}
}

// liveLayers fills the in-situ per-layer metrics of a live workload: counter
// deltas over the traced window, process figures and advisory tails from
// the untraced one.
func liveLayers(r *run, m map[string]float64, spec liveSpec, base, traced *liveOutcome) {
	a, b := &traced.a, &traced.b
	wNs := float64(b.at.Sub(a.at).Nanoseconds())
	cores := float64(runtime.GOMAXPROCS(0))
	tokens := float64(b.tokens - a.tokens)
	reqs := float64(b.completed - a.completed)
	c := b.layers.sub(a.layers)

	// runtime.submit_ns is the replica-side submit: the Engine wrapper's in
	// a cluster, the Backend wrapper's in front of a single runtime.
	if c[engineCalls] > 0 {
		m["runtime.submit_ns"] = ratio(float64(c[engineNs]), float64(c[engineCalls]))
	} else {
		m["runtime.submit_ns"] = ratio(float64(c[backendNs]), float64(c[backendCalls]))
	}
	iters := float64(b.stats.Iterations - a.stats.Iterations)
	m["runtime.iter_us"] = ratio(wNs/1e3*float64(spec.runtimes), iters)
	m["runtime.tokens_per_iter"] = ratio(tokens, iters)
	m["runtime.resident_mean"] = ratio(traced.gauges.residentSum, float64(traced.gauges.n))
	m["runtime.preemptions"] = float64(b.stats.Preemptions - a.stats.Preemptions)
	m["runtime.rejected"] = float64(b.stats.Rejected - a.stats.Rejected)
	m["runtime.queue_delay_ms_p50"] = histQuantile(a.scrape.Queue, b.scrape.Queue, 0.5) * 1e3

	schedLayers(m, c, wNs*cores)

	m["kvcache.free_rate_min"] = traced.gauges.freeMin
	m["kvcache.free_rate_mean"] = ratio(traced.gauges.freeSum, float64(traced.gauges.n))
	m["kvcache.cached_block_share_end"] = ratio(float64(b.stats.KVCachedBlocks), float64(b.stats.KVTotalBlocks))
	hitTokens := float64(b.stats.PrefixHitTokens - a.stats.PrefixHitTokens)
	m["kvcache.prefix_hit_tokens"] = hitTokens

	m["metrics.bytes_per_record"] = ratio(float64(b.liveHeap)-float64(a.liveHeap), reqs)

	if c[pickCalls] > 0 {
		m["cluster.pick_ns"] = ratio(float64(c[pickNs]), float64(c[pickCalls]))
		m["cluster.picks_per_req"] = ratio(float64(c[pickCalls]), float64(c[backendCalls]))
		m["cluster.submit_self_ns"] = ratio(float64(c[backendNs]-c[engineNs]-c[pickNs]), float64(c[backendCalls]))
		m["cluster.home_hit_share"] = ratio(float64(c[homeHits]), float64(c[groupPicks]))
		m["cluster.prefix_hit_share"] = ratio(hitTokens, float64(b.shared-a.shared))
		var load []float64
		for i := range b.routed {
			load = append(load, float64(b.routed[i]-a.routed[i]))
		}
		m["cluster.load_cv"] = stats.Summarize(load).CV()
		m["cluster.retries_429"] = float64(traced.retries429)
		m["cluster.gave_up"] = float64(traced.gaveUp)
	}

	baseTokS := ratio(float64(base.b.tokens-base.a.tokens), base.b.at.Sub(base.a.at).Seconds())
	m["obs.trace_overhead_share"] = 1 - ratio(tokens/(wNs/1e9), baseTokS)

	mallocs := float64(base.b.mallocs - base.a.mallocs)
	cpu := base.b.totalCPU - base.a.totalCPU
	m["process.allocs_per_token"] = ratio(mallocs, float64(base.b.tokens-base.a.tokens))
	m["process.allocs_per_req"] = ratio(mallocs, float64(base.b.completed-base.a.completed))
	m["process.gc_cpu_share"] = ratio(base.b.gcCPU-base.a.gcCPU, cpu)
	m["process.idle_cpu_share"] = ratio(base.b.idleCPU-base.a.idleCPU, cpu)
	m["process.live_heap_end_mb"] = float64(base.b.liveHeap) / mib

	m["gen.ttft_ms_p90"] = quantile(base.ttft, 0.90) / 1e6
	m["gen.ttft_ms_p99"] = quantile(base.ttft, 0.99) / 1e6
	m["gen.e2e_ms_p50"] = quantile(base.e2e, 0.50) / 1e6
	m["gen.e2e_ms_p99"] = quantile(base.e2e, 0.99) / 1e6
	for _, name := range []string{"gen.ttft_ms_p90", "gen.ttft_ms_p99"} {
		r.Samples[name] = len(base.ttft)
	}
	for _, name := range []string{"gen.e2e_ms_p50", "gen.e2e_ms_p99"} {
		r.Samples[name] = len(base.e2e)
	}
}

// histQuantile estimates the q-quantile of the observations a histogram
// gained between two scrapes, interpolating inside the bucket.
func histQuantile(a, b metrics.HistSnapshot, q float64) float64 {
	if len(b.Counts) == 0 {
		return 0
	}
	counts := append([]uint64(nil), b.Counts...)
	var total uint64
	for i := range counts {
		if i < len(a.Counts) {
			counts[i] -= a.Counts[i]
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range counts {
		if seen+float64(c) >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = b.Bounds[i-1]
			}
			if i >= len(b.Bounds) {
				return lo // +Inf bucket: report its lower bound
			}
			return lo + (b.Bounds[i]-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return b.Bounds[len(b.Bounds)-1]
}

// budgetLine is one row of a workload's CPU budget: a layer's time per
// delivered token and per request against what the window offered.
type budgetLine struct {
	Layer      string  `json:"layer"`
	How        string  `json:"how"` // "in situ", "probe", "process", "wait", "remainder" or "untraced"
	NsPerToken float64 `json:"ns_per_token"`
	NsPerReq   float64 `json:"ns_per_req"`
	// Share of the end-to-end figure; 0 on "wait" rows, which are time a
	// caller was parked, not CPU anyone spent.
	Share float64 `json:"share"`
}

// liveBudget sets the layers' self times against the untraced end-to-end
// figure. The window offers cores × wall CPU-nanoseconds; dividing by the
// tokens (requests) delivered gives the budget each token (request) spent.
// A wrapped call that does not block contributes its wall time (an upper
// bound on its CPU: it can still wait on a mutex); Policy.Pick parks its
// caller on the replica's driver (MatchPrefix), so it is listed as a wait
// and claims nothing; layers a wrapper cannot isolate are estimated from
// their probe; what nobody claims is the residual — the runtime's
// driver/worker hand-off, slab delivery and goroutine switches, which no
// interface exposes.
func liveBudget(m map[string]float64, base, traced *liveOutcome) []budgetLine {
	cores := float64(runtime.GOMAXPROCS(0))
	wNs := float64(base.b.at.Sub(base.a.at).Nanoseconds())
	tokens := float64(base.b.tokens - base.a.tokens)
	reqs := float64(base.b.completed - base.a.completed)
	if tokens == 0 || reqs == 0 {
		return nil
	}
	perReq := tokens / reqs
	total := cores * wNs / tokens // CPU-ns per token

	c := traced.b.layers.sub(traced.a.layers)
	tReqs := float64(traced.b.completed - traced.a.completed)
	tTokens := float64(traced.b.tokens - traced.a.tokens)

	var lines []budgetLine
	var claimed float64
	add := func(layer, how string, nsPerReq float64) {
		l := budgetLine{Layer: layer, How: how, NsPerReq: nsPerReq, NsPerToken: nsPerReq / perReq}
		if how != "wait" {
			l.Share = l.NsPerToken / total
			claimed += l.NsPerToken
		}
		lines = append(lines, l)
	}
	add("gen: client loop, body, stream check", "probe", m["gen.self_ns_per_req"])
	serveFixed := m["server.serve_ns_per_req"] - m["server.serve_ns_per_token"]
	add("server: parse, SSE encode, write", "probe", serveFixed+perReq*m["server.serve_ns_per_token"])
	if c[pickCalls] > 0 {
		add("cluster: router self (routable scan, counters)", "in situ",
			ratio(float64(c[backendNs]-c[engineNs]-c[pickNs]), tReqs))
		add("cluster: policy pick (parked on the driver's MatchPrefix)", "wait", ratio(float64(c[pickNs]), tReqs))
		add("runtime: submit (admission, enqueue)", "in situ", ratio(float64(c[engineNs]), tReqs))
	} else {
		add("runtime: submit (admission, enqueue)", "in situ", ratio(float64(c[backendNs]), tReqs))
	}
	add("sched: Schedule", "in situ", ratio(float64(c[schedNs]), tTokens)*perReq)
	add("process: garbage collection", "process", m["process.gc_cpu_share"]*total*perReq)
	add("process: idle (Go scheduler had nothing to run)", "process", m["process.idle_cpu_share"]*total*perReq)
	lines = append(lines, budgetLine{
		Layer: "residual: runtime driver/worker hand-off, slab delivery, switches", How: "remainder",
		NsPerToken: total - claimed, NsPerReq: (total - claimed) * perReq, Share: (total - claimed) / total,
	})
	lines = append(lines, budgetLine{
		Layer: "end to end (cores x wall / delivered)", How: "untraced",
		NsPerToken: total, NsPerReq: total * perReq, Share: 1,
	})
	return lines
}

func printBudget(r *run) {
	if len(r.Budget) == 0 {
		return
	}
	fmt.Printf("   -- budget: CPU-ns per token and per request (GOMAXPROCS %d)\n", runtime.GOMAXPROCS(0))
	fmt.Printf("   %-64s %-9s %12s %14s %7s\n", "layer", "how", "ns/token", "ns/request", "share")
	for _, l := range r.Budget {
		fmt.Printf("   %-64s %-9s %12.1f %14.1f %6.1f%%\n", l.Layer, l.How, l.NsPerToken, l.NsPerReq, 100*l.Share)
	}
}

// simRates returns the median per-lap host rates of a sweep.
func simRates(out *simOutcome) (reqPerS, tokPerS float64) {
	var rq, tk []float64
	for _, lap := range out.laps {
		rq = append(rq, float64(lap.requests)/lap.host.Seconds())
		tk = append(tk, float64(lap.tokens)/lap.host.Seconds())
	}
	_, reqPerS, _ = quartiles(rq)
	_, tokPerS, _ = quartiles(tk)
	return reqPerS, tokPerS
}

func (r *run) accountSim(out *simOutcome) {
	r.Attempted += out.attempted
	r.Failed += out.failed
	r.Errors = append(r.Errors, out.errs...)
}

func measureSim(spec simSpec, o options, window time.Duration, probes *probeSet) (*run, error) {
	r := newRun("sim_sweep", o)
	base := runSim(spec, o.seed, window, nil, false)
	r.accountSim(base)
	reqPerS, tokPerS := simRates(base)
	first := base.laps[0]
	var err error
	// On this workload req_per_s and tokens_per_s are host rates of
	// simulated work; TTFT and TPOT are modelled time, exact per seed.
	r.EndToEnd, err = emit(endToEndDefs, map[string]float64{
		"setup_s":      base.setup.Seconds(),
		"tokens_per_s": tokPerS,
		"req_per_s":    reqPerS,
		"ttft_ms_p50":  first.ttftP50 * 1e3,
		"tpot_us_p50":  first.tpotP50 * 1e6,
		"live_heap_mb": base.heapMB,
	})
	if err != nil {
		return nil, err
	}
	if o.trace {
		tr := newTracer()
		traced := runSim(spec, o.seed, window, tr, false)
		r.accountSim(traced)
		rss := peakRSSMiB()
		pm, err := probes.get()
		if err != nil {
			return nil, err
		}
		m := zeroLayers(pm)
		var host time.Duration
		var engHost [numEngines]time.Duration
		var engIters [numEngines]int64
		var reqs, tokens int64
		for _, lap := range traced.laps {
			host += lap.host
			for e := 0; e < numEngines; e++ {
				engHost[e] += lap.engHost[e]
				engIters[e] += lap.engIters[e]
			}
		}
		for _, lap := range base.laps {
			reqs += lap.requests
			tokens += lap.tokens
		}
		for e, name := range engineNames {
			m["engine."+name+"_ns_per_iter"] = ratio(float64(engHost[e].Nanoseconds()), float64(engIters[e]))
			m["engine."+name+"_host_share"] = ratio(engHost[e].Seconds(), host.Seconds())
		}
		c := tr.counts()
		schedLayers(m, c, float64(host.Nanoseconds()))
		m["engine.sched_share"] = m["sched.schedule_share"]
		m["engine.allocs_per_req"] = ratio(float64(base.mallocs), float64(reqs))
		m["sim.gllm_tok_s"] = first.gllmTokS
		m["sim.gllm_slo_share"] = first.gllmSLO
		if base.digestOK && traced.digestOK {
			m["sim.digest_ok"] = 1
		}
		tracedReqPerS, _ := simRates(traced)
		m["obs.trace_overhead_share"] = 1 - ratio(tracedReqPerS, reqPerS)
		m["process.allocs_per_token"] = ratio(float64(base.mallocs), float64(tokens))
		m["process.allocs_per_req"] = m["engine.allocs_per_req"]
		m["process.peak_rss_mb"] = rss
		m["process.live_heap_end_mb"] = base.heapEndMB
		m["process.gc_cpu_share"] = base.gcShare
		if r.PerLayer, err = emit(perLayerDefs, m); err != nil {
			return nil, err
		}
		if err := writeTrace(tr, r.Workload); err != nil {
			return nil, err
		}
	}
	r.finish()
	return r, nil
}

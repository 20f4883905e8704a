// Package gllm is a from-scratch Go reproduction of "gLLM: Global Balanced
// Pipeline Parallelism Systems for Distributed LLMs Serving with Token
// Throttling" (SC '25).
//
// The paper's contribution — the Token Throttling scheduling policy and the
// asynchronous pipeline-parallel serving runtime — is implemented for real;
// the GPU cluster it runs on is replaced by an analytic substrate (roofline
// GPU cost model, link-level network model, virtual-time event simulation)
// so the entire evaluation reproduces deterministically on a laptop.
//
// Layout:
//
//	internal/core        Token Throttling (the paper's eqs. 1-4)
//	internal/sched       iteration-level schedulers (Sarathi baseline, gLLM)
//	internal/engine      virtual-time engines: pipeline-, tensor-, token-
//	                     parallel (TKNP) and disaggregated prefill/decode
//	internal/runtime     concurrent async runtime (driver + stage workers)
//	internal/server      OpenAI-compatible REST frontend
//	internal/client      open-loop benchmark client
//	internal/experiments per-figure/table reproduction drivers
//	internal/cluster     multi-replica router and its HTTP frontend
//	internal/{sim,gpu,model,network,kvcache,request,workload,metrics,stats,obs}
//	                     substrates
//	cmd/                 gllm-sim, gllm-server, gllm-cluster, gllm-bench,
//	                     gllm-experiments, gllm-tracecheck, gllm-loc
//	benchmark/           the repo benchmark (its own module; make bench)
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The quickstart is the checked-output Example in internal/runtime.
package gllm

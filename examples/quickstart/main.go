// Quickstart: start an in-process gLLM runtime (Qwen2.5-32B on an emulated
// 4 x L20 pipeline), stream a few completions, and print the serving
// metrics — the 60-second tour of the public API.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/runtime"
	"gllm/internal/sched"
)

func main() {
	// 1. Deploy: model + GPUs + topology + the Token Throttling scheduler.
	rt, err := runtime.Start(runtime.Config{
		Model:     model.Qwen25_32B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(), // #T=8 #MaxP=2048 #MinP=32 KVthresh=0.05
		Async:     true,                       // the paper's dual-phase runtime
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	}()
	fmt.Printf("runtime up: %s across 4 stages, KV capacity %d tokens\n\n",
		model.Qwen25_32B.Name, rt.KVCapacityTokens())

	// 2. Submit requests; each handle streams its tokens in batches, one per
	// micro-batch the request took part in.
	prompts := []struct {
		text      string
		maxTokens int
	}{
		{"Explain pipeline parallelism in one paragraph", 24},
		{"Why do pipeline bubbles hurt GPU utilization?", 16},
		{"What does token throttling balance?", 12},
	}
	type pending struct {
		prompt string
		h      *runtime.Handle
	}
	var inflight []pending
	ctx := context.Background()
	for _, p := range prompts {
		h, err := rt.SubmitBatchedSpec(ctx, runtime.SubmitSpec{
			PromptLen: runtime.TokenizeLen(p.text), MaxTokens: p.maxTokens})
		if err != nil {
			log.Fatal(err)
		}
		inflight = append(inflight, pending{p.text, h})
	}

	// 3. Consume the streams (they interleave in real serving; here we
	// read them request by request).
	for _, p := range inflight {
		fmt.Printf("prompt:  %q\n", p.prompt)
		fmt.Print("output:  ")
		for evs := p.h.Next(ctx); evs != nil; evs = p.h.Next(ctx) {
			for _, ev := range evs {
				fmt.Print(ev.Text)
			}
		}
		fmt.Println()
	}

	// 4. Inspect serving metrics.
	sc := rt.Metrics().Scrape()
	st := rt.Stats()
	fmt.Printf("\nserved %d requests in %d iterations\n", sc.ByReason["length"], st.Iterations)
	fmt.Printf("mean TTFT %.1f ms, mean TPOT %.2f ms, %d preemptions\n",
		sc.TTFT.Sum/float64(sc.TTFT.Count)*1e3, sc.TPOT.Sum/float64(sc.TPOT.Count)*1e3, st.Preemptions)
}

package runtime_test

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/runtime"
	"gllm/internal/sched"
)

// The quickstart: start an in-process gLLM runtime (Qwen2.5-32B on an
// emulated 4 x L20 pipeline), stream a few completions, read the serving
// metrics.
func Example() {
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
	fmt.Printf("runtime up: %s across 4 stages, KV capacity %d tokens\n",
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
	ctx := context.Background()
	var inflight []*runtime.Handle
	for _, p := range prompts {
		h, err := rt.SubmitBatchedSpec(ctx, runtime.SubmitSpec{
			PromptLen: runtime.TokenizeLen(p.text), MaxTokens: p.maxTokens})
		if err != nil {
			log.Fatal(err)
		}
		inflight = append(inflight, h)
	}

	// 3. Consume the streams (they interleave in real serving; here we
	// read them request by request).
	for i, h := range inflight {
		var out strings.Builder
		for evs := h.Next(ctx); evs != nil; evs = h.Next(ctx) {
			for _, ev := range evs {
				out.WriteString(ev.Text) // "word " per token
			}
		}
		fmt.Printf("prompt: %q\noutput: %s\n", prompts[i].text, strings.TrimSpace(out.String()))
	}

	// 4. Inspect serving metrics.
	sc := rt.Metrics().Scrape()
	fmt.Printf("served %d requests, %d TTFT samples, %d preemptions\n",
		sc.ByReason["length"], sc.TTFT.Count, rt.Stats().Preemptions)

	// Output:
	// runtime up: Qwen2.5-32B across 4 stages, KV capacity 469708 tokens
	// prompt: "Explain pipeline parallelism in one paragraph"
	// output: rate more one an more there stage first there may this for are is word unit core flow may has stage model run word
	// prompt: "Why do pipeline bubbles hurt GPU utilization?"
	// output: page token flow run as scale token core depth queue page rate block block would run
	// prompt: "What does token throttling balance?"
	// output: split or that flow load flow model in if may by will
	// served 3 requests, 3 TTFT samples, 0 preemptions
}

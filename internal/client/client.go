// Package client is the open-loop benchmark client (the Go analogue of the
// paper's benchmarks/benchmark_serving.py): it replays a workload trace
// against an OpenAI-compatible endpoint at the trace's arrival times,
// measuring per-request TTFT, TPOT and E2EL from the SSE stream.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"gllm/internal/metrics"
	"gllm/internal/server"
	"gllm/internal/workload"
)

// PromptMode resolves how the client renders each request's prompt.
type PromptMode int

const (
	// PromptAuto (the zero value) sends a synthetic prompt_len for prompts
	// above SyntheticThreshold tokens and a real prompt string below it.
	PromptAuto PromptMode = iota
	// PromptSynthetic always sends prompt_len (cheapest; no prompt bytes).
	PromptSynthetic
	// PromptReal always constructs the full prompt string, regardless of
	// length — the opt-out PromptAuto used to make impossible.
	PromptReal
)

// SyntheticThreshold is the prompt length above which PromptAuto switches
// to synthetic prompts.
const SyntheticThreshold = 4096

// synthetic resolves the mode for one item's prompt length.
func (m PromptMode) synthetic(promptLen int) bool {
	switch m {
	case PromptSynthetic:
		return true
	case PromptReal:
		return false
	default:
		return promptLen > SyntheticThreshold
	}
}

// Options configures a benchmark run.
type Options struct {
	// BaseURL of the server, e.g. "http://127.0.0.1:8000".
	BaseURL string
	// Model name sent in each request.
	Model string
	// Items is the trace to replay (sorted by arrival).
	Items []workload.Item
	// HTTPClient overrides the default client.
	HTTPClient *http.Client
	// PromptMode selects synthetic (prompt_len) vs real prompt strings.
	// The default PromptAuto goes synthetic only above SyntheticThreshold
	// tokens; PromptReal forces real prompts even for long items.
	PromptMode PromptMode
	// MaxInFlight caps concurrent in-flight requests (0 = unlimited).
	// Arrival times stay open-loop; requests beyond the cap queue in the
	// client and their measured latency includes the queueing delay.
	MaxInFlight int
}

// Result aggregates a benchmark run.
type Result struct {
	Collector *metrics.Collector
	Report    metrics.Report
	Duration  time.Duration
	// Rejected counts requests the server refused with 429 (admission
	// control / backpressure). They are expected under deliberate overload
	// and are reported separately from Errors.
	Rejected int
	Errors   []error
}

// errRejected marks a 429 response so Run can count it as shed load rather
// than a failure.
var errRejected = fmt.Errorf("client: request rejected (429)")

// Run replays the trace and blocks until every request completes or ctx is
// cancelled.
func Run(ctx context.Context, opts Options) (*Result, error) {
	if opts.BaseURL == "" {
		return nil, fmt.Errorf("client: empty BaseURL")
	}
	if err := workload.Validate(opts.Items); err != nil {
		return nil, err
	}
	httpc := opts.HTTPClient
	if httpc == nil {
		httpc = &http.Client{}
	}

	var (
		mu        sync.Mutex
		collector metrics.Collector
		errs      []error
		rejected  int
		wg        sync.WaitGroup
		sem       chan struct{}
	)
	if opts.MaxInFlight > 0 {
		sem = make(chan struct{}, opts.MaxInFlight)
	}
	start := time.Now()
	for i, it := range opts.Items {
		wg.Add(1)
		go func(id int, item workload.Item) {
			defer wg.Done()
			select {
			case <-time.After(item.Arrival - time.Since(start)):
			case <-ctx.Done():
				mu.Lock()
				errs = append(errs, ctx.Err())
				mu.Unlock()
				return
			}
			if sem != nil {
				select {
				case sem <- struct{}{}:
					defer func() { <-sem }()
				case <-ctx.Done():
					mu.Lock()
					errs = append(errs, ctx.Err())
					mu.Unlock()
					return
				}
			}
			rec, err := sendOne(ctx, httpc, opts, int64(id), item, start)
			mu.Lock()
			switch {
			case errors.Is(err, errRejected):
				rejected++
			case err != nil:
				errs = append(errs, fmt.Errorf("request %d: %w", id, err))
			default:
				collector.Add(rec)
			}
			mu.Unlock()
		}(i, it)
	}
	wg.Wait()
	dur := time.Since(start)
	return &Result{
		Collector: &collector,
		Report:    collector.Report(dur),
		Duration:  dur,
		Rejected:  rejected,
		Errors:    errs,
	}, nil
}

// sendOne issues one streaming completion and measures its latencies.
// start is the run's epoch: Record.Arrival is the send time relative to
// it, so arrival/queue-delay columns derived downstream are meaningful.
func sendOne(ctx context.Context, httpc *http.Client, opts Options, id int64, item workload.Item, start time.Time) (metrics.Record, error) {
	body := server.CompletionRequest{Model: opts.Model, MaxTokens: item.OutputLen, Stream: true}
	if opts.PromptMode.synthetic(item.PromptLen) {
		body.PromptLen = item.PromptLen
	} else {
		body.Prompt = strings.TrimSpace(strings.Repeat("tok ", item.PromptLen))
	}
	if item.PrefixGroup != 0 {
		// Conversation identity rides along so prefix-caching servers (and
		// prefix-affinity cluster routers) can reuse the shared-context KV.
		body.PrefixGroup = item.PrefixGroup
		body.SharedPrefixLen = item.SharedPrefixLen
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return metrics.Record{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, opts.BaseURL+"/v1/completions", bytes.NewReader(buf))
	if err != nil {
		return metrics.Record{}, err
	}
	req.Header.Set("Content-Type", "application/json")

	sent := time.Now()
	resp, err := httpc.Do(req)
	if err != nil {
		return metrics.Record{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		return metrics.Record{}, errRejected
	}
	if resp.StatusCode != http.StatusOK {
		return metrics.Record{}, fmt.Errorf("status %s", resp.Status)
	}

	var (
		firstToken time.Time
		tokens     int
		finish     string
	)
	chunks := server.NewChunkReader(resp.Body)
	for {
		text, reason, err := chunks.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return metrics.Record{}, err
		}
		if reason != "" {
			finish = reason
		}
		if text == "" {
			continue // abort terminator carries a reason but no token
		}
		if tokens == 0 {
			firstToken = time.Now()
		}
		tokens++
	}
	if tokens == 0 {
		return metrics.Record{}, fmt.Errorf("no tokens streamed (finish_reason %q)", finish)
	}
	if finish != "" && finish != "length" {
		return metrics.Record{}, fmt.Errorf("aborted after %d tokens (finish_reason %q)", tokens, finish)
	}
	end := time.Now()
	rec := metrics.Record{
		ID:           id,
		Arrival:      sent.Sub(start), // send time relative to the run start
		TTFT:         firstToken.Sub(sent),
		E2E:          end.Sub(sent),
		PromptTokens: item.PromptLen,
		OutputTokens: tokens,
		FinishReason: finish,
	}
	if tokens > 1 {
		rec.TPOT = end.Sub(firstToken) / time.Duration(tokens-1)
	}
	return rec, nil
}

package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"dlion/internal/data"
	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/serve"
)

// qpsFloor bounds how far batched may trail batch1: the ratio of the
// slowest to the fastest of ten best-of-two batch1 runs of this benchmark
// (0.748, listed in CHANGES.md). Since a batch-1 forward stopped re-packing
// fc1's weights, batch1 and batched serve within that spread of each other
// on the 1×16×16 Cipher, so "faster" is no longer a bar this benchmark can
// hold. With Dense weights packed once per version the runner is no longer
// what batching amortises: in ten runs on a 2-core box batched served
// 0.90–1.06× batch1.
const qpsFloor = 0.75

// runServeBench measures the serving subsystem: batch=1 vs dynamic
// micro-batching under the same offered load, plus an overload config at
// ~2x the queue's capacity to exercise shedding. Results land in a
// BENCH JSON report (kind "serve-bench"). The run fails unless the batched
// config coalesces (mean batch fill ≥ 4: 32 clients fill 5.8–8.5 of 32 on a
// 2-core box, batching off fills 1), answers every request and keeps its
// throughput within qpsFloor of batch1, and the overload config sheds —
// these are the acceptance bars, not just numbers.
func runServeBench(stdout io.Writer, jsonPath string, dur time.Duration, conc, maxBatch int) error {
	if jsonPath == "" {
		jsonPath = "BENCH_serve.json"
	}
	dc := data.CIFAR10Config(0.02, 20)
	spec := nn.CipherSpec(dc.Channels, dc.Height, dc.Width, dc.NumClasses, 1020)
	ckpt := spec.Build().Checkpoint()
	input := make([]float32, dc.Channels*dc.Height*dc.Width)
	for i := range input {
		input[i] = float32(i%23) / 23
	}

	type benchCase struct {
		name, label string
		cfg         serve.Config
		conc        int
	}
	cases := []benchCase{
		// Not a one-client latency: every client queues on one runner
		// that takes one request per forward.
		{"batch1", fmt.Sprintf("%d clients queue on one runner", conc),
			serve.Config{MaxBatch: 1, QueueDepth: 4096}, conc},
		{"batched", "", serve.Config{MaxBatch: maxBatch, QueueDepth: 4096}, conc},
		// Overload: far more clients than the queue holds, with small
		// batches so the runner cannot drain the queue in one gulp —
		// admission control has to shed.
		{"overload", "", serve.Config{MaxBatch: 8, QueueDepth: 8}, 4 * conc},
	}

	jr := obs.NewReport("serve-bench", "dlion-bench/serve")
	jr.Config = map[string]any{
		"duration": dur.String(), "concurrency": conc,
		"max_batch": maxBatch, "model": spec.Kind,
		"input_dims": fmt.Sprintf("%dx%dx%d", dc.Channels, dc.Height, dc.Width),
	}
	jr.Histograms = map[string]obs.HistogramSummary{}

	// Each config runs twice, interleaved, keeping the higher-QPS run: on a
	// shared box a single sample is hostage to whatever else the scheduler
	// is doing, and best-of-n is the usual antidote.
	const runsPerCase = 2
	results := map[string]serve.LoadResult{}
	histories := map[string]*obs.Registry{}
	for round := 0; round < runsPerCase; round++ {
		for _, bc := range cases {
			reg := serve.NewRegistry(spec)
			if err := reg.Publish(1, "bench", ckpt); err != nil {
				return err
			}
			metrics := obs.NewRegistry()
			bc.cfg.Registry, bc.cfg.Metrics = reg, metrics
			srv, err := serve.Listen(bc.cfg, "127.0.0.1:0")
			if err != nil {
				return err
			}
			res, err := serve.RunLoad(context.Background(), serve.LoadConfig{
				URL: srv.URL(), Concurrency: bc.conc, Duration: dur, Input: input,
			})
			srv.Close()
			if err != nil {
				return err
			}
			if best, seen := results[bc.name]; !seen || res.QPS > best.QPS {
				results[bc.name] = res
				histories[bc.name] = metrics
			}
		}
	}
	for _, bc := range cases {
		res, metrics := results[bc.name], histories[bc.name]
		fmt.Fprintf(stdout, "%-9s qps=%8.0f  ok=%-6d shed=%-6d p50=%6.2fms p95=%6.2fms p99=%6.2fms\n",
			bc.name, res.QPS, res.OK, res.Shed,
			res.Latency.P50*1e3, res.Latency.P95*1e3, res.Latency.P99*1e3)

		title := fmt.Sprintf("max_batch=%d queue=%d clients=%d", bc.cfg.MaxBatch, bc.cfg.QueueDepth, bc.conc)
		if bc.label != "" {
			title = bc.label + ": " + title
		}
		jr.Experiments = append(jr.Experiments, obs.ExperimentReport{
			ID:    bc.name,
			Title: title,
			Values: map[string]float64{
				"qps": res.QPS, "sent": float64(res.Sent), "ok": float64(res.OK),
				"shed": float64(res.Shed), "failed": float64(res.Failed),
				"p50_ms": res.Latency.P50 * 1e3, "p95_ms": res.Latency.P95 * 1e3,
				"p99_ms": res.Latency.P99 * 1e3,
			},
		})
		// Server-side distributions, prefixed per config.
		for name, h := range metrics.HistogramSummaries() {
			jr.Histograms[bc.name+"."+name] = h
		}
		jr.Histograms[bc.name+".client.latency"] = res.Latency
	}

	single, batched, over := results["batch1"], results["batched"], results["overload"]
	fill := histories["batched"].Histogram("serve.batch_fill").Mean()
	jr.Summary = map[string]float64{
		"batch1_qps":        single.QPS,
		"batched_qps":       batched.QPS,
		"batch_speedup":     batched.QPS / single.QPS,
		"batched_fill_mean": fill,
		"overload_shed":     float64(over.Shed),
		"overload_p99_s":    over.Latency.P99,
	}
	if err := jr.WriteFile(jsonPath); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "json report written to", jsonPath)

	if fill < 4 {
		return fmt.Errorf("batched mean batch fill %.1f: requests are not coalescing", fill)
	}
	if batched.OK != batched.Sent || batched.Shed != 0 || batched.Failed != 0 {
		return fmt.Errorf("batched config left requests unanswered: %+v", batched)
	}
	if batched.QPS < qpsFloor*single.QPS {
		return fmt.Errorf("batched qps %.0f below %.2f × batch=1 qps %.0f", batched.QPS, qpsFloor, single.QPS)
	}
	if over.Shed == 0 {
		return fmt.Errorf("overload config shed nothing: admission control not engaging")
	}
	if over.Failed > 0 {
		return fmt.Errorf("%d hard failures under overload", over.Failed)
	}
	fmt.Fprintf(stdout, "micro-batching: %.2fx batch1 qps at mean fill %.1f; overload shed %d of %d\n",
		batched.QPS/single.QPS, fill, over.Shed, over.Sent)
	return nil
}

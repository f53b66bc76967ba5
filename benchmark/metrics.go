package main

// This file is the benchmark's table of contents. BENCHMARK.json at the root
// of the repository lists the same workloads and metrics for the driver;
// TestBenchmarkJSONAgrees keeps the two from drifting apart.

// workloadNames in the order a full pass runs them.
var workloadNames = []string{"train_wire", "train_compute", "sim_fed256", "serve_swap"}

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd metrics: what a user of the system sees. Every workload reports
// all of them, measured with tracing off. lat_p99_ms was the sixth; it could
// not hold a bound on the reference box and was demoted to the per-layer list
// (README.md, demotion rule).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"alloc_mb_per_kop", "MB/kop", "lower", 0.05},
	{"wire_kb_per_op", "KB/op", "lower", 0.05},
}

// boundOf returns an end-to-end metric's bound.
func boundOf(name string) float64 {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Bound
		}
	}
	return 0
}

// perLayer metrics: the ledger of the traced run. A layer a workload does
// not exercise reports 0 there.
var perLayer = []metricDef{
	{Name: "nn.train_step_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.checkpoint_restore_ms", Unit: "ms", Better: "lower"},
	{Name: "data.next_batch_us", Unit: "us", Better: "lower"},
	{Name: "data.generate_s", Unit: "s", Better: "lower"},
	{Name: "grad.select_ms", Unit: "ms", Better: "lower"},
	{Name: "grad.select_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "grad.kept_ratio", Unit: "ratio", Better: "lower"},
	{Name: "wire.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.frame_kb", Unit: "KB", Better: "lower"},
	{Name: "wire.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "queue.send_ms", Unit: "ms", Better: "lower"},
	{Name: "queue.recv_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "queue.send_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "queue.rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "queue.list_depth_max", Unit: "count", Better: "lower"},
	{Name: "queue.reconnect_attempts", Unit: "count", Better: "lower"},
	{Name: "realtime.self_ms", Unit: "ms", Better: "lower"},
	{Name: "realtime.lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "realtime.fifo_drops", Unit: "count", Better: "lower"},
	{Name: "realtime.send_queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "core.phase_compute_share", Unit: "ratio", Better: "higher"},
	{Name: "core.phase_serialize_share", Unit: "ratio", Better: "lower"},
	{Name: "core.phase_send_share", Unit: "ratio", Better: "lower"},
	{Name: "core.phase_recv_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "core.phase_apply_share", Unit: "ratio", Better: "lower"},
	{Name: "core.loss_final", Unit: "nat", Better: "lower"},
	{Name: "core.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "simclock.noop_mevents_per_s", Unit: "M/s", Better: "higher"},
	{Name: "cluster.lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cluster.events_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.deliver_us", Unit: "us", Better: "lower"},
	{Name: "cluster.model_math_share", Unit: "ratio", Better: "higher"},
	{Name: "cluster.alloc_mb_per_run", Unit: "MB", Better: "lower"},
	{Name: "cluster.gc_count", Unit: "count", Better: "lower"},
	{Name: "serve.server_lat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.server_lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.client_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_fill_mean", Unit: "count", Better: "higher"},
	{Name: "serve.swap_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.swap_visible_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.update_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.sheds", Unit: "count", Better: "lower"},
	{Name: "serve.manifest_rejects", Unit: "count", Better: "lower"},
	{Name: "lineage.model_hash_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "proc.gc_count", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// Values recorded for -seed 1 at -seconds 20. The train workloads are
// deterministic under OrderedApply — the loss repeats to the last bit on one
// machine — so a final test loss more than lossTolerance off its record means
// the computation changed. After a change that is meant to move the loss, run
// `go run ./benchmark -seed 1` and record the printed values here.
var referenceLosses = map[string]float64{
	"train_wire":    0.005430,
	"train_compute": 0.004350,
}

// lossTolerance is 5 % of the recorded loss.
func lossTolerance(ref float64) float64 { return 0.05 * ref }

// referenceSimBytes is Result.TotalBytes summed over sim_fed256's Runs for
// -seed 1 at -seconds 20, printed next to the measured value.
const referenceSimBytes int64 = 18878457566

// referenceLoss returns the recorded loss when (workload, seed, size) is the
// recorded configuration.
func referenceLoss(workload string, seed uint64, sz size) (float64, bool) {
	if seed != 1 || sz != sizeFor(workload, defaultSeconds) {
		return 0, false
	}
	v, ok := referenceLosses[workload]
	return v, ok
}

package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// SchemaVersion identifies the BENCH JSON schema emitted by Report. Bump
// it on any incompatible change and record the migration in METRICS.md.
const SchemaVersion = "dlion.bench.v1"

// Report is the machine-readable summary of one run — a simulation, a
// real-mode session, a kernel benchmark sweep, or an experiment batch. It
// is the payload of every BENCH_*.json file; METRICS.md documents each
// field. Sections that do not apply to a run kind stay empty and are
// omitted from the JSON.
type Report struct {
	Schema string `json:"schema"` // always SchemaVersion
	Kind   string `json:"kind"`   // "sim-run", "kernel-bench", "experiments"
	Name   string `json:"name"`

	// Config echoes the knobs that produced the run (system, environment,
	// horizon, seed, ...) so a report is self-describing.
	Config map[string]any `json:"config,omitempty"`

	// Workers is the per-worker phase breakdown and transfer accounting.
	Workers []WorkerReport `json:"workers,omitempty"`

	// Counters is a process-wide Registry snapshot (queue, transport,
	// fault counters).
	Counters map[string]int64 `json:"counters,omitempty"`

	// Histograms holds quantile summaries of the run's distributions
	// (serving latency, batch fill, ...), keyed by metric name.
	Histograms map[string]HistogramSummary `json:"histograms,omitempty"`

	// Timeline is the accuracy-over-time series of a training run.
	Timeline []TimelinePoint `json:"timeline,omitempty"`

	// Benchmarks holds parsed `go test -bench` results (kernel-bench kind).
	Benchmarks []BenchResult `json:"benchmarks,omitempty"`

	// Experiments holds one record per harness experiment (experiments kind).
	Experiments []ExperimentReport `json:"experiments,omitempty"`

	// Summary is the run's headline scalars (final accuracy, total bytes,
	// iterations, ...).
	Summary map[string]float64 `json:"summary,omitempty"`
}

// NewReport returns a report of the given kind and name with the current
// schema version stamped.
func NewReport(kind, name string) *Report {
	return &Report{Schema: SchemaVersion, Kind: kind, Name: name}
}

// WorkerReport is one worker's observability snapshot.
type WorkerReport struct {
	ID    int   `json:"id"`
	Iters int64 `json:"iters,omitempty"`

	// Job labels the control-plane training job this worker served (empty
	// for hand-launched runs), so one broker's concurrent jobs can be told
	// apart when their reports are folded into a single store.
	Job string `json:"job,omitempty"`

	// Phases maps phase name → accumulated seconds (virtual in sim, wall
	// in real mode).
	Phases map[string]float64 `json:"phases"`

	// Per message class (gradient / weights / control).
	SentBytes map[string]int64 `json:"sent_bytes"`
	SentMsgs  map[string]int64 `json:"sent_msgs"`
	RecvBytes map[string]int64 `json:"recv_bytes"`
	RecvMsgs  map[string]int64 `json:"recv_msgs"`

	LivenessExpiries int64 `json:"liveness_expiries,omitempty"`
	SyncBlocks       int64 `json:"sync_blocks,omitempty"`
	MsgsRejected     int64 `json:"msgs_rejected,omitempty"`
	QuantBytesSaved  int64 `json:"quant_bytes_saved,omitempty"`

	// Elastic membership (zero for static clusters).
	RosterSize    int64   `json:"roster_size,omitempty"`
	Epoch         int64   `json:"epoch,omitempty"`
	DegradedIters int64   `json:"degraded_iters,omitempty"`
	JoinLatencyS  float64 `json:"join_latency_s,omitempty"`
}

// TimelinePoint is one accuracy evaluation of a training run.
type TimelinePoint struct {
	T       float64 `json:"t"`
	MeanAcc float64 `json:"mean_acc"`
	StdAcc  float64 `json:"std_acc"`
	Loss    float64 `json:"loss"`
}

// BenchResult is one parsed `go test -bench` line.
type BenchResult struct {
	Name        string  `json:"name"`
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`

	// Extra holds custom metrics emitted via testing.B.ReportMetric (unit →
	// value), e.g. the DES scalability benchmarks' "events/s".
	Extra map[string]float64 `json:"extra,omitempty"`
}

// ExperimentReport is one harness experiment's headline values.
type ExperimentReport struct {
	ID     string             `json:"id"`
	Title  string             `json:"title,omitempty"`
	Values map[string]float64 `json:"values,omitempty"`
	Notes  []string           `json:"notes,omitempty"`
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	if r.Schema == "" {
		r.Schema = SchemaVersion
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path (the BENCH_*.json convention).
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile parses a report written by WriteFile, verifying the schema tag.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("obs: report schema %q, want %q", r.Schema, SchemaVersion)
	}
	return &r, nil
}

// ParseGoBench extracts benchmark results from `go test -bench` output.
// Non-benchmark lines (package headers, PASS/ok, logs) are skipped, so the
// raw command output can be piped in unfiltered.
func ParseGoBench(r io.Reader) ([]BenchResult, error) {
	var out []BenchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if b, ok := parseBenchLine(sc.Text()); ok {
			out = append(out, b)
		}
	}
	return out, sc.Err()
}

// parseBenchLine parses one "BenchmarkX-8  100  123 ns/op  4 B/op ..." line.
func parseBenchLine(line string) (BenchResult, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return BenchResult{}, false
	}
	runs, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return BenchResult{}, false
	}
	b := BenchResult{Name: f[0], Runs: runs}
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "ns/op":
			b.NsPerOp, seen = v, true
		case "MB/s":
			b.MBPerSec = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			// Custom b.ReportMetric units (e.g. "events/s") land in Extra so
			// schema consumers can track them without a schema bump.
			if b.Extra == nil {
				b.Extra = map[string]float64{}
			}
			b.Extra[f[i+1]] = v
		}
	}
	return b, seen
}

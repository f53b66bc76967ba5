package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// testSizes are the workloads' op counts scaled down until the whole file
// runs in a few seconds: a dozen iterations, a few hundred requests with two
// swaps, one round of a 16-worker federation.
var testSizes = map[string]size{
	"train_wire":    {warm: 5, timed: 20},
	"train_compute": {warm: 2, timed: 10},
	"serve_swap":    {warm: 50, timed: 500},
	"sim_fed256":    {timed: 1, simWorkers: 16, simWarm: 8},
}

// facts are the parts of an outcome that must not depend on the clock.
type facts struct {
	attempted, failed, wireBytes, swaps int64
	wireKBPerOp, lossFinal              float64
	digest                              uint64
}

func factsOf(t *testing.T, workload string, seed uint64) facts {
	t.Helper()
	o, err := runWorkload(workload, seed, testSizes[workload], false)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if o.failed != 0 {
		t.Fatalf("%s seed %d: %d ops failed: %v", workload, seed, o.failed, o.fails)
	}
	for _, d := range endToEnd {
		if v, ok := o.e2e[d.Name]; !ok || !(v > 0) {
			t.Errorf("%s seed %d: end-to-end metric %s = %v, want > 0", workload, seed, d.Name, v)
		}
	}
	return facts{o.attempted, o.failed, o.wireBytes, o.swaps, o.e2e["wire_kb_per_op"], o.lossFinal, o.digest}
}

// quick shrinks what does not bear on the facts under test: one set-up per
// run and three calls per probe.
func quick(t *testing.T) {
	r, k := setupRepeats, probeK
	setupRepeats, probeK = 1, 3
	t.Cleanup(func() { setupRepeats, probeK = r, k })
}

func TestSameSeedSameCounts(t *testing.T) {
	quick(t)
	for _, w := range workloadNames {
		w := w
		t.Run(w, func(t *testing.T) {
			t.Parallel() // the facts do not depend on the clock, so sharing the cores is harmless
			a, b := factsOf(t, w, 1), factsOf(t, w, 1)
			if w == "serve_swap" {
				// Which checkpoint answers the requests around a swap is the
				// registry's timing, and the two print different digits.
				if math.Abs(a.wireKBPerOp-b.wireKBPerOp) > 1e-4*a.wireKBPerOp {
					t.Errorf("wire_kb_per_op %v vs %v", a.wireKBPerOp, b.wireKBPerOp)
				}
				b.wireBytes, b.wireKBPerOp = a.wireBytes, a.wireKBPerOp
			}
			if a != b {
				t.Errorf("same seed, different facts:\n  %+v\n  %+v", a, b)
			}
			c := factsOf(t, w, 2)
			if c.attempted != a.attempted || c.swaps != a.swaps {
				t.Errorf("another seed changed the op counts: %+v vs %+v", a, c)
			}
			if c.lossFinal == a.lossFinal && c.digest == a.digest && c.wireBytes == a.wireBytes {
				t.Errorf("another seed left data, loss and bytes unchanged: %+v", c)
			}
		})
	}
}

func TestTracedRunFillsTheLedger(t *testing.T) {
	quick(t)
	sum := map[string]float64{}
	for _, w := range workloadNames {
		o, err := runWorkload(w, 1, testSizes[w], true)
		if err != nil {
			t.Fatal(err)
		}
		if o.failed != 0 {
			t.Fatalf("%s: %v", w, o.fails)
		}
		known := map[string]bool{}
		for _, d := range perLayer {
			known[d.Name] = true
		}
		for name, v := range o.layer {
			if !known[name] {
				t.Errorf("%s reports %s, which metrics.go does not list", w, name)
			}
			sum[name] += v
		}
		if w == "train_wire" || w == "train_compute" {
			s := o.layer["core.phase_compute_share"] + o.layer["core.phase_serialize_share"] +
				o.layer["core.phase_send_share"] + o.layer["core.phase_recv_wait_share"] +
				o.layer["core.phase_apply_share"]
			if s < 0.99 || s > 1.01 {
				t.Errorf("%s: phase shares sum to %v", w, s)
			}
		}
		if len(o.spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", w)
		}
	}
	// every listed layer metric is produced by some workload (counters that
	// must stay 0 on a healthy run aside)
	zeroOK := map[string]bool{"queue.reconnect_attempts": true, "realtime.fifo_drops": true,
		"serve.sheds": true, "serve.manifest_rejects": true, "trace.overhead_pct": true,
		"proc.gc_count": true, "queue.list_depth_max": true, "proc.gc_pause_ms": true, "cluster.gc_count": true}
	for _, d := range perLayer {
		if sum[d.Name] == 0 && !zeroOK[d.Name] {
			t.Errorf("no workload reports %s", d.Name)
		}
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and metrics.go in step.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || doc.RunSeconds != defaultSeconds {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	same := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: %+v, want %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.Bound) {
				t.Errorf("%s[%d] %s: bound mismatch", kind, i, w.Name)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}

package testkit

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"dlion/internal/cluster"
	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/nn"
	"dlion/internal/simcompute"
	"dlion/internal/simnet"
	"dlion/internal/systems"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden/*.json from the current code instead of comparing")

const goldenSeed = 17

// goldenRun executes the small, fully seeded sim workload a snapshot
// gates: 3 heterogeneous workers on the Cipher task, evaluated every 12
// virtual seconds over a 36-second horizon. Kernels run in
// deterministic-reduction mode so the result is bit-reproducible.
func goldenRun(t *testing.T, sys core.Config) Golden {
	return goldenRunN(t, sys, 3)
}

// goldenRunN is goldenRun at an arbitrary worker count: the heterogeneous
// capacity pattern repeats past four workers.
func goldenRunN(t *testing.T, sys core.Config, n int) Golden {
	t.Helper()
	computes := make([]*simcompute.Compute, n)
	for i := range computes {
		// Mild heterogeneity so the dynamic systems have something to react to.
		cap := []float64{12, 9, 15, 11}[i%4]
		computes[i] = simcompute.New(simcompute.Constant(cap),
			simcompute.CostModel{Overhead: 0.05, PerSample: 0.5}, uint64(i))
	}
	res, err := cluster.Run(cluster.Config{
		System: sys,
		Model:  nn.CipherSpec(1, 8, 8, 3, 0),
		Data: data.Config{Name: "golden", NumClasses: 3, Train: 240, Test: 60,
			Channels: 1, Height: 8, Width: 8, Noise: 0.35, Jitter: 0, Bumps: 3,
			Seed: goldenSeed},
		N:          n,
		Computes:   computes,
		Network:    simnet.Uniform(n, simcompute.Constant(200), 0.001),
		Horizon:    36,
		EvalPeriod: 12,
		EvalSubset: 60,
		EvalBatch:  30,
		Seed:       goldenSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return GoldenFromResult(sys.Name, goldenSeed, res)
}

// TestGoldenConvergence gates two representative systems — the dense
// synchronous Baseline and the full DLion stack — against committed
// convergence snapshots. Regenerate deliberately with
//
//	go test ./internal/testkit -run Golden -update-golden
//
// and review the JSON diff like any other code change (see TESTING.md).
func TestGoldenConvergence(t *testing.T) {
	cases := []struct {
		name string
		sys  core.Config
	}{
		{"baseline", systems.Baseline()},
		{"dlion", systems.DLion()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := goldenRun(t, tc.sys)
			path := filepath.Join("testdata", "golden", tc.name+".json")
			if *updateGolden {
				if err := SaveGolden(path, got); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d points, final acc %.3f)",
					path, len(got.Points), got.Points[len(got.Points)-1].Acc)
				return
			}
			want, err := LoadGolden(path)
			if errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("missing %s; regenerate with -update-golden", path)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := CompareGolden(want, got, GoldenTol{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGoldenQuantConvergence gates the quantized exchange: DLion with every
// link forced to int8 wire precision, at 2 and 4 workers, against committed
// convergence snapshots. A change to the quantizer (rounding, scale
// selection, code layout) that alters what peers learn from each other shows
// up here as a snapshot diff rather than a silent accuracy drift.
// Regenerate like any golden: -update-golden, review the JSON diff.
func TestGoldenQuantConvergence(t *testing.T) {
	for _, n := range []int{2, 4} {
		n := n
		t.Run(fmt.Sprintf("quant-i8-%dw", n), func(t *testing.T) {
			sys, err := systems.WithQuant(systems.DLion(), "i8")
			if err != nil {
				t.Fatal(err)
			}
			got := goldenRunN(t, sys, n)
			path := filepath.Join("testdata", "golden", fmt.Sprintf("quant-i8-%dw.json", n))
			if *updateGolden {
				if err := SaveGolden(path, got); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d points, final acc %.3f)",
					path, len(got.Points), got.Points[len(got.Points)-1].Acc)
				return
			}
			want, err := LoadGolden(path)
			if errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("missing %s; regenerate with -update-golden", path)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := CompareGolden(want, got, GoldenTol{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGoldenSanity validates that the committed snapshots describe runs
// that actually learned something — a regenerated-by-accident empty or
// degenerate snapshot should not silently pass the gate.
func TestGoldenSanity(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden snapshots found (err=%v); run -update-golden", err)
	}
	for _, p := range paths {
		g, err := LoadGolden(p)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(p), ".json")
		if len(g.Points) < 2 || len(g.Iters) == 0 {
			t.Fatalf("%s: degenerate snapshot: %d points, %d workers",
				name, len(g.Points), len(g.Iters))
		}
		final := g.Points[len(g.Points)-1]
		if final.Acc < 0.5 {
			t.Errorf("%s: final accuracy %.3f — snapshot of a run that never learned", name, final.Acc)
		}
		for i, it := range g.Iters {
			if it < 5 {
				t.Errorf("%s: worker %d only %d iterations", name, i, it)
			}
		}
	}
}

// TestCompareGoldenRejects exercises the gate's failure modes directly.
func TestCompareGoldenRejects(t *testing.T) {
	base := Golden{System: "s", Seed: 1, Iters: []int64{100, 100},
		Points: []GoldenPoint{{T: 10, Acc: 0.5, Loss: 1.0}, {T: 20, Acc: 0.8, Loss: 0.5}}}
	cases := map[string]func(g *Golden){
		"acc drift":     func(g *Golden) { g.Points[1].Acc -= 0.2 },
		"loss drift":    func(g *Golden) { g.Points[0].Loss += 0.5 },
		"iter drift":    func(g *Golden) { g.Iters[1] = 80 },
		"fewer points":  func(g *Golden) { g.Points = g.Points[:1] },
		"shifted sched": func(g *Golden) { g.Points[0].T = 11 },
		"nan loss":      func(g *Golden) { g.Points[1].Loss = nan() },
		"wrong system":  func(g *Golden) { g.System = "other" },
	}
	for name, mutate := range cases {
		got := Golden{System: base.System, Seed: base.Seed,
			Iters:  append([]int64(nil), base.Iters...),
			Points: append([]GoldenPoint(nil), base.Points...)}
		mutate(&got)
		if err := CompareGolden(base, got, GoldenTol{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := CompareGolden(base, base, GoldenTol{}); err != nil {
		t.Errorf("identical run rejected: %v", err)
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

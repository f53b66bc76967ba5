package cluster

import (
	"reflect"
	"testing"

	"dlion/internal/systems"
)

// TestRunUntilConvergedExtendsHorizon: with an unreachable plateau bar the
// driver must keep doubling the horizon until maxTime, and return the run
// at the final horizon: a fresh Run of it, though the discarded shorter
// runs drew from the same jittered Computes first.
func TestRunUntilConvergedExtendsHorizon(t *testing.T) {
	cfg := jitteredConfig(systems.Baseline())
	cfg.Horizon = 10
	cfg.EvalPeriod = 5
	// eps=0 cannot plateau (it would need two evaluations exactly equal
	// four apart), so only the maxTime cap at 40 stops the doubling:
	// horizons 10 -> 20 -> 40
	res, convT, err := RunUntilConverged(cfg, 4, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Timeline[len(res.Timeline)-1].T
	if last <= 10 {
		t.Fatalf("final timeline ends at %v: horizon was never extended", last)
	}
	if convT <= 0 || convT > last {
		t.Fatalf("convergence time %v outside the run (last eval %v)", convT, last)
	}
	cfg.Horizon = 40
	fresh, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Timeline, fresh.Timeline) {
		t.Fatalf("timeline differs from a fresh run at the final horizon:\n%v\n%v", res.Timeline, fresh.Timeline)
	}
}

// TestRunUntilConvergedMaxTimeCap: maxTime equal to the initial horizon
// means exactly one run — no doubling — even when nothing has plateaued.
func TestRunUntilConvergedMaxTimeCap(t *testing.T) {
	cfg := tinyConfig(systems.Baseline())
	cfg.Horizon = 20
	cfg.EvalPeriod = 5
	res, convT, err := RunUntilConverged(cfg, 4, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Timeline[len(res.Timeline)-1].T
	if last > 20 {
		t.Fatalf("maxTime-capped run evaluated at %v, past the 20s horizon", last)
	}
	if convT <= 0 || convT > 20 {
		t.Fatalf("convergence time %v outside the capped run", convT)
	}
}

// TestRunUntilConvergedTimeExtraction: the reported convergence time is
// the first evaluation whose mean accuracy is within eps of the final one.
func TestRunUntilConvergedTimeExtraction(t *testing.T) {
	cfg := tinyConfig(systems.Baseline())
	cfg.Horizon = 30
	cfg.EvalPeriod = 5
	const eps = 0.05
	res, convT, err := RunUntilConverged(cfg, 2, eps, 60)
	if err != nil {
		t.Fatal(err)
	}
	final := res.Timeline.FinalMean()
	want := -1.0
	for _, p := range res.Timeline {
		if p.Mean >= final-eps {
			want = p.T
			break
		}
	}
	if want < 0 {
		t.Fatal("no timeline point within eps of the final accuracy")
	}
	if convT != want {
		t.Fatalf("convergence time %v, want first-within-eps point %v", convT, want)
	}
	// and never later than the final evaluation
	if convT > res.Timeline[len(res.Timeline)-1].T {
		t.Fatalf("convergence time %v past the end of the run", convT)
	}
}

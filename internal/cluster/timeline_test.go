package cluster

import (
	"math"
	"testing"
)

func tl(points ...EvalPoint) Timeline { return Timeline(points) }

func TestNewPoint(t *testing.T) {
	p := NewPoint(10, []float64{0.5, 0.7}, 1.2)
	if p.T != 10 || math.Abs(p.Mean-0.6) > 1e-9 {
		t.Fatalf("point %+v", p)
	}
	if p.Std == 0 {
		t.Fatal("std should be nonzero")
	}
	if p.Loss != 1.2 {
		t.Fatalf("loss %v", p.Loss)
	}
	// input must be copied
	in := []float64{0.1}
	p2 := NewPoint(0, in, 0)
	in[0] = 9
	if p2.PerWork[0] != 0.1 {
		t.Fatal("NewPoint must copy accuracies")
	}
}

func TestFinalAndBestMean(t *testing.T) {
	empty := tl()
	if empty.FinalMean() != 0 || empty.BestMean() != 0 {
		t.Fatal("empty timeline")
	}
	line := tl(
		NewPoint(0, []float64{0.1}, 0),
		NewPoint(10, []float64{0.8}, 0),
		NewPoint(20, []float64{0.6}, 0),
	)
	if line.FinalMean() != 0.6 {
		t.Fatalf("final %v", line.FinalMean())
	}
	if line.BestMean() != 0.8 {
		t.Fatalf("best %v", line.BestMean())
	}
}

func TestTimeToAccuracy(t *testing.T) {
	line := tl(
		NewPoint(0, []float64{0.1}, 0),
		NewPoint(10, []float64{0.5}, 0),
		NewPoint(20, []float64{0.9}, 0),
	)
	if tt, ok := line.TimeToAccuracy(0.5); !ok || tt != 10 {
		t.Fatalf("tta(0.5) = %v, %v", tt, ok)
	}
	if tt, ok := line.TimeToAccuracy(0.05); !ok || tt != 0 {
		t.Fatalf("tta(0.05) = %v, %v", tt, ok)
	}
	if _, ok := line.TimeToAccuracy(0.95); ok {
		t.Fatal("unreached target must report !ok")
	}
}

func TestDeviation(t *testing.T) {
	line := tl(
		NewPoint(0, []float64{0.5, 0.5}, 0),
		NewPoint(10, []float64{0.2, 0.8}, 0),
		NewPoint(20, []float64{0.4, 0.6}, 0),
		NewPoint(30, []float64{0.5, 0.5}, 0),
	)
	if line.FinalDeviation() != 0 {
		t.Fatalf("final dev %v", line.FinalDeviation())
	}
	if got, want := line[1].Std, 0.3*math.Sqrt2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("deviation at t=10 %v, want %v", got, want)
	}
}

// TestEdgeCases pins the boundary behaviour every caller of Timeline relies
// on: empty and single-point timelines and windows wider than the data.
func TestEdgeCases(t *testing.T) {
	empty := tl()
	if empty.FinalDeviation() != 0 {
		t.Fatal("empty timeline must report zero deviation")
	}
	if _, ok := empty.TimeToAccuracy(0); ok {
		t.Fatal("empty timeline never reaches a target")
	}
	if empty.Converged(0, 1) {
		t.Fatal("empty timeline cannot be converged")
	}

	single := tl(NewPoint(5, []float64{0.3}, 1))
	if single.FinalMean() != 0.3 || single.BestMean() != 0.3 {
		t.Fatalf("single point means: %v %v", single.FinalMean(), single.BestMean())
	}
	if single.FinalDeviation() != 0 {
		t.Fatal("single worker has zero deviation")
	}
	if single.Converged(1, 1) {
		t.Fatal("one point cannot show a plateau")
	}

	line := tl(
		NewPoint(10, []float64{0.2}, 0),
		NewPoint(20, []float64{0.4}, 0),
	)
	// window larger than the whole timeline
	if line.Converged(5, 10) {
		t.Fatal("window wider than timeline must report not converged")
	}
	if !line.Converged(1, 0.5) {
		t.Fatal("exact-fit window should evaluate the plateau test")
	}
}

func TestConverged(t *testing.T) {
	line := tl(
		NewPoint(0, []float64{0.1}, 0),
		NewPoint(10, []float64{0.5}, 0),
		NewPoint(20, []float64{0.70}, 0),
		NewPoint(30, []float64{0.705}, 0),
		NewPoint(40, []float64{0.707}, 0),
	)
	if !line.Converged(2, 0.02) {
		t.Fatal("should be converged over trailing window")
	}
	if line.Converged(3, 0.02) {
		t.Fatal("wider window includes the climb")
	}
	if tl(NewPoint(0, []float64{1}, 0)).Converged(3, 0.1) {
		t.Fatal("short timeline cannot be converged")
	}
}

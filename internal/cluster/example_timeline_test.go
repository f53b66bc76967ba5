package cluster_test

import (
	"fmt"

	"dlion/internal/cluster"
)

// ExampleTimeline builds a short accuracy timeline and queries the §5.1.3
// performance metrics: accuracy at the end of the budget, time to a target
// accuracy, and the converged-accuracy plateau test.
func ExampleTimeline() {
	tl := cluster.Timeline{
		cluster.NewPoint(0, []float64{0.10, 0.10}, 2.3),
		cluster.NewPoint(60, []float64{0.48, 0.52}, 1.1),
		cluster.NewPoint(120, []float64{0.70, 0.72}, 0.6),
		cluster.NewPoint(180, []float64{0.71, 0.73}, 0.6),
	}
	fmt.Printf("final mean %.2f\n", tl.FinalMean())
	tta, ok := tl.TimeToAccuracy(0.5)
	fmt.Printf("time to 50%%: %.0fs (reached=%v)\n", tta, ok)
	fmt.Printf("converged: %v\n", tl.Converged(1, 0.02))
	// Output:
	// final mean 0.72
	// time to 50%: 60s (reached=true)
	// converged: true
}

// ExampleTimeline_deviation shows the Figure 17 style across-worker
// deviation, per point and at the end.
func ExampleTimeline_deviation() {
	tl := cluster.Timeline{
		cluster.NewPoint(0, []float64{0.1, 0.9, 0.5}, 0),
		cluster.NewPoint(60, []float64{0.3, 0.5, 0.7}, 0),
		cluster.NewPoint(120, []float64{0.6, 0.6, 0.6}, 0),
	}
	fmt.Printf("deviation at t=60s %.2f\n", tl[1].Std)
	fmt.Printf("final deviation %.2f\n", tl.FinalDeviation())
	// Output:
	// deviation at t=60s 0.20
	// final deviation 0.00
}

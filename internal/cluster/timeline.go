package cluster

import (
	"math"

	"dlion/internal/stats"
)

// EvalPoint is one periodic evaluation of every worker's model.
type EvalPoint struct {
	T       float64   // virtual seconds since training started
	PerWork []float64 // test accuracy per worker
	Mean    float64
	Std     float64 // stddev across workers (Fig 17)
	Loss    float64 // mean test loss across workers
}

// Timeline is a Run's ordered series of evaluations, and the three
// performance metrics of §5.1.3 read from it: accuracy at a training-time
// budget (the FinalMean of a Run whose horizon is the budget), time until a
// target accuracy, and converged accuracy, plus the per-worker accuracy
// deviation of Figure 17.
type Timeline []EvalPoint

// NewPoint summarizes per-worker accuracies into an EvalPoint.
func NewPoint(t float64, accs []float64, meanLoss float64) EvalPoint {
	s := stats.Summarize(accs)
	return EvalPoint{T: t, PerWork: append([]float64(nil), accs...),
		Mean: s.Mean, Std: s.Std, Loss: meanLoss}
}

// FinalMean returns the mean accuracy at the last evaluation (0 for an
// empty timeline).
func (tl Timeline) FinalMean() float64 {
	if len(tl) == 0 {
		return 0
	}
	return tl[len(tl)-1].Mean
}

// BestMean returns the highest mean accuracy reached at any point.
func (tl Timeline) BestMean() float64 {
	best := 0.0
	for _, p := range tl {
		if p.Mean > best {
			best = p.Mean
		}
	}
	return best
}

// TimeToAccuracy returns the first time the mean accuracy reached target,
// and ok=false if it never did.
func (tl Timeline) TimeToAccuracy(target float64) (float64, bool) {
	for _, p := range tl {
		if p.Mean >= target {
			return p.T, true
		}
	}
	return 0, false
}

// FinalDeviation returns the across-worker accuracy standard deviation at
// the last evaluation.
func (tl Timeline) FinalDeviation() float64 {
	if len(tl) == 0 {
		return 0
	}
	return tl[len(tl)-1].Std
}

// Converged reports whether the mean accuracy has plateaued: the
// improvement over the trailing `window` evaluations is below eps.
func (tl Timeline) Converged(window int, eps float64) bool {
	if len(tl) < window+1 {
		return false
	}
	last := tl[len(tl)-1].Mean
	prev := tl[len(tl)-1-window].Mean
	return math.Abs(last-prev) < eps
}

package stats

import (
	"errors"
	"math"
	"sort"
)

// LinearFit holds the result of an ordinary-least-squares fit y ≈ a + b·x.
type LinearFit struct {
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination
}

// ErrDegenerate is returned by LinearRegression when the inputs cannot
// determine a line (fewer than two points, or zero variance in x).
var ErrDegenerate = errors.New("stats: degenerate regression input")

// LinearRegression fits y ≈ a + b·x by least squares. The LBS controller
// uses this with x = local batch size, y = iteration seconds: the slope is
// the per-sample cost, whose reciprocal is the worker's relative compute
// power (samples per second).
func LinearRegression(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, errors.New("stats: x and y lengths differ")
	}
	n := float64(len(x))
	if len(x) < 2 {
		return LinearFit{}, ErrDegenerate
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += float64(dx * dx)
		sxy += float64(dx * dy)
		syy += float64(dy * dy)
	}
	if sxx == 0 {
		return LinearFit{}, ErrDegenerate
	}
	b := sxy / sxx
	a := my - float64(b*mx)
	r2 := 1.0
	if syy > 0 {
		ssRes := syy - float64(b*sxy)
		r2 = 1 - ssRes/syy
	}
	return LinearFit{Intercept: a, Slope: b, R2: r2}, nil
}

// Summary holds the summary statistics used by the evaluation harness.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	CI95   float64 // half-width of the 95% confidence interval for the mean
	Median float64
}

// Summarize computes summary statistics for xs. An empty slice yields a
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, v := range xs {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, v := range xs {
			d := v - s.Mean
			ss += float64(d * d)
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
		s.CI95 = tCritical95(len(xs)-1) * s.Std / math.Sqrt(float64(len(xs)))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	m := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[m]
	} else {
		s.Median = (sorted[m-1] + sorted[m]) / 2
	}
	return s
}

// tCritical95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom. Values for small df are tabulated (the harness
// averages 3 runs, df=2, just like the paper); large df falls back to the
// normal quantile 1.96.
func tCritical95(df int) float64 {
	table := []float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
		2.086,
	}
	if df <= 0 {
		return math.NaN()
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

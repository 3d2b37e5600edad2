// Package stats provides the small statistical toolkit used across the
// reproduction: running moments, quantiles and confidence intervals for
// experiment reporting, plus the power-law exponent estimate the graph
// statistics report.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates count, mean and variance in a single pass using
// Welford's algorithm. The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean, or 0 with no observations.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance (n-1 denominator).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// StdErr returns the standard error of the mean.
func (r *Running) StdErr() float64 {
	if r.n == 0 {
		return 0
	}
	return r.StdDev() / math.Sqrt(float64(r.n))
}

// CI95 returns the half-width of a ~95% normal-approximation confidence
// interval around the mean.
func (r *Running) CI95() float64 { return 1.96 * r.StdErr() }

// String renders "mean ± ci95 (n=…)".
func (r *Running) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", r.Mean(), r.CI95(), r.n)
}

// VarianceFromMoments returns the unbiased sample variance (n-1
// denominator) of n observations with the given mean and mean of squares.
// Floating-point cancellation can drive the raw difference slightly
// negative for near-constant samples; the result is clamped at 0.
func VarianceFromMoments(n int, mean, meanSq float64) float64 {
	if n < 2 {
		return 0
	}
	v := (meanSq - mean*mean) * float64(n) / float64(n-1)
	if v < 0 {
		return 0
	}
	return v
}

// StdErrFromMoments returns the standard error of the mean of n
// observations with the given mean and mean of squares — the Monte-Carlo
// error bar the evaluation engines thread through their Results.
func StdErrFromMoments(n int, mean, meanSq float64) float64 {
	if n <= 0 {
		return 0
	}
	return math.Sqrt(VarianceFromMoments(n, mean, meanSq) / float64(n))
}

// Quantile returns the q-quantile (0<=q<=1) of xs using linear
// interpolation. It copies and sorts the input. Empty input returns 0.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// PowerLawExponent estimates the exponent alpha of a discrete power-law
// degree distribution via the maximum-likelihood estimator of Clauset,
// Shalizi & Newman with xmin fixed: alpha = 1 + n / Σ ln(x_i / (xmin - 0.5)).
// Values below xmin are ignored. Returns 0 when fewer than two usable
// observations exist.
func PowerLawExponent(degrees []int, xmin int) float64 {
	if xmin < 1 {
		xmin = 1
	}
	n := 0
	s := 0.0
	for _, d := range degrees {
		if d < xmin {
			continue
		}
		n++
		s += math.Log(float64(d) / (float64(xmin) - 0.5))
	}
	if n < 2 || s == 0 {
		return 0
	}
	return 1 + float64(n)/s
}

// Package stats implements the statistical primitives Uni-Detect builds on:
// robust dispersion measures (median/MAD, §3.1), classical moments
// (mean/SD), quantiles and IQR, outlier scores, the log-transform fit test
// used as a featurization dimension, and empirical distribution helpers
// (histograms, ECDF, kernel density estimation).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// SD returns the sample standard deviation (N-1 denominator, Equation 6),
// or NaN if fewer than two values are given.
func SD(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Median returns the median of xs, or NaN for empty input. The input is not
// modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return medianSorted(s)
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MAD returns the median absolute deviation from the median (Equation 7),
// or NaN for empty input.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	med := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return Median(dev)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks, or NaN for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// IQR returns the interquartile range Q3-Q1, or NaN for empty input.
func IQR(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.75) - quantileSorted(s, 0.25)
}

// MADScore returns |v - median| / MAD (Equation 9). If the MAD is zero
// or undefined the score is 0 for v == median and +Inf otherwise.
func MADScore(v float64, xs []float64) float64 {
	return dispersionScore(v, Median(xs), MAD(xs))
}

func dispersionScore(v, center, disp float64) float64 {
	d := math.Abs(v - center)
	if math.IsNaN(disp) || disp == 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return d / disp
}

// MaxMAD returns the largest MADScore over xs together with the index of
// the most outlying value (Equation 10). It returns (NaN, -1) for empty
// input.
func MaxMAD(xs []float64) (score float64, argmax int) {
	return maxScore(xs, Median(xs), MAD(xs))
}

// MaxSD is the SD analogue of MaxMAD.
func MaxSD(xs []float64) (score float64, argmax int) {
	return maxScore(xs, Mean(xs), SD(xs))
}

// MaxIQR is the IQR analogue of MaxMAD.
func MaxIQR(xs []float64) (score float64, argmax int) {
	return maxScore(xs, Median(xs), IQR(xs))
}

func maxScore(xs []float64, center, disp float64) (float64, int) {
	if len(xs) == 0 {
		return math.NaN(), -1
	}
	best, arg := math.Inf(-1), -1
	for i, x := range xs {
		s := dispersionScore(x, center, disp)
		if s > best {
			best, arg = s, i
		}
	}
	return best, arg
}

// LogTransformFits reports whether a log transform makes the (positive)
// data "more normal", measured by comparing the skewness magnitude of the
// raw values against that of their logarithms. Columns with any
// non-positive value never fit. This is the featurization dimension of
// §3.1 ("whether logarithm-transform better fits the data").
func LogTransformFits(xs []float64) bool {
	if len(xs) < 3 {
		return false
	}
	logs := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return false
		}
		logs[i] = math.Log(x)
	}
	return math.Abs(Skewness(logs)) < math.Abs(Skewness(xs))
}

// Skewness returns the sample skewness of xs (Fisher-Pearson, adjusted),
// or 0 when undefined (fewer than 3 values or zero variance).
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return 0
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	g1 := m3 / math.Pow(m2, 1.5)
	return g1 * math.Sqrt(n*(n-1)) / (n - 2)
}

// ApproxEq reports whether a and b are within tol of each other. It is the
// sanctioned epsilon comparison for LR scores, p-values and θ thresholds:
// raw == / != on computed floats is rejected by unilint's floatcompare
// analyzer because last-ulp drift between algebraically equal code paths
// silently flips verdicts.
func ApproxEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// SameFloat reports bitwise equality of two floats. Unlike ==, it is
// NaN-safe (NaN equals itself) and therefore gives sorts a total order,
// which is what deterministic tie-breaking on computed scores needs.
func SameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// IsWhole reports whether x has no fractional part (and so can be printed
// as an integer losslessly).
func IsWhole(x float64) bool {
	return x-math.Trunc(x) == 0
}

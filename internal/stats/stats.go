// Package stats provides the small set of summary statistics the
// experiment harness reports: means, quantiles and five-number boxplot
// summaries (the paper's Figure 2 shows boxplots over 10 runs).
package stats

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Summary is a five-number summary plus mean, as drawn in a boxplot.
type Summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	Mean   float64
}

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type 7, the R/NumPy default).
// It returns NaN for empty input and does not modify xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
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

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Summarize computes the boxplot summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{N: 0, Min: nan, Q1: nan, Median: nan, Q3: nan, Max: nan, Mean: nan}
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	return Summary{
		N:      len(s),
		Min:    s[0],
		Q1:     Quantile(s, 0.25),
		Median: Quantile(s, 0.5),
		Q3:     Quantile(s, 0.75),
		Max:    s[len(s)-1],
		Mean:   Mean(s),
	}
}

// SummarizeDurations converts ds to seconds and summarizes them.
func SummarizeDurations(ds []time.Duration) Summary {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return Summarize(xs)
}

// String renders the summary as one human-readable line, in seconds
// when the values are times.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f mean=%.3f",
		s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
}

// IQR returns the interquartile range.
func (s Summary) IQR() float64 { return s.Q3 - s.Q1 }

// LinearFit fits y = a + b*x by least squares and returns (a, b, r2).
// It returns NaNs when fewer than two distinct x values exist. The
// harness uses it to check the paper's "linear reduction" claim.
func LinearFit(x, y []float64) (a, b, r2 float64) {
	nan := math.NaN()
	if len(x) != len(y) || len(x) < 2 {
		return nan, nan, nan
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return nan, nan, nan
	}
	b = sxy / sxx
	a = my - b*mx
	if syy == 0 {
		return a, b, 1
	}
	r2 = (sxy * sxy) / (sxx * syy)
	return a, b, r2
}

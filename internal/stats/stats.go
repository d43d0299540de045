// Package stats provides the small statistical toolkit shared by the
// reliability model, the metrics collector and the experiment harness:
// quantiles, five-number (box-plot) summaries, means and deviations, and
// empirical CDFs.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation, or 0 for fewer than two
// samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It sorts a copy; xs is untouched.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// QuantileSorted returns the q-quantile of an already-sorted slice without
// copying — callers that need many quantiles of one sample sort once and use
// this (0 for an empty slice).
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	lo, hi, frac := QuantilePos(len(sorted), q)
	return Interpolate(sorted[lo], sorted[hi], frac)
}

// QuantilePos locates the q-quantile (0 <= q <= 1) of a sorted sample of
// n >= 1 values: it lies between order statistics lo and hi (equal, or
// adjacent), frac of the way from the first to the second. Callers whose
// sample is not a []float64 index it themselves and pass both values to
// Interpolate, which keeps their quantiles bit-identical to QuantileSorted.
func QuantilePos(n int, q float64) (lo, hi int, frac float64) {
	pos := q * float64(n-1)
	lo = int(math.Floor(pos))
	hi = int(math.Ceil(pos))
	return lo, hi, pos - float64(lo)
}

// Interpolate returns the value frac of the way from order statistic a to b.
func Interpolate(a, b, frac float64) float64 {
	if frac == 0 {
		return a
	}
	return a*(1-frac) + b*frac
}

// FiveNum is a box-plot summary.
type FiveNum struct {
	Min, Q1, Median, Q3, Max float64
}

// Summarize computes the five-number summary of xs.
func Summarize(xs []float64) FiveNum {
	if len(xs) == 0 {
		return FiveNum{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return FiveNum{
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
	}
}

// String renders the summary the way the experiment tables print box plots.
func (f FiveNum) String() string {
	return fmt.Sprintf("min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g",
		f.Min, f.Q1, f.Median, f.Q3, f.Max)
}

// CDF is an empirical cumulative distribution over observed samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples (a copy is taken).
func NewCDF(xs []float64) *CDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// NewCDFSorted builds an empirical CDF that adopts sorted, which must be
// ascending and is not copied; the caller hands it over. It is NewCDF for a
// caller that has sorted its samples already.
func NewCDFSorted(sorted []float64) *CDF {
	return &CDF{sorted: sorted}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Inverse returns the smallest sample value v with P(X <= v) >= p; i.e. the
// p-quantile read off the empirical distribution.
func (c *CDF) Inverse(p float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(math.Ceil(p*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.sorted[idx]
}

// Max returns the largest sample (0 if empty).
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[len(c.sorted)-1]
}

// Points returns n evenly spaced (value, cumulative-probability) points
// suitable for plotting the CDF curve.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	out := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		p := float64(i+1) / float64(n)
		out = append(out, [2]float64{c.Inverse(p), p})
	}
	return out
}

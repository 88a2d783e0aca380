// Package stats provides the histogram and distribution-distance utilities
// used to compare weight and pixel distributions (the paper's Figs 2 and 3).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a normalized frequency histogram over an explicit range.
type Histogram struct {
	// Lo, Hi bound the value range; values outside are clamped into the
	// end buckets.
	Lo, Hi float64
	// Freq holds normalized bucket frequencies summing to 1 (for
	// non-empty input).
	Freq []float64
	// N is the number of samples counted.
	N int
}

// NewHistogram counts values into `bins` equal-width buckets over [lo, hi].
func NewHistogram(values []float64, bins int, lo, hi float64) Histogram {
	if bins <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	if hi <= lo {
		panic(fmt.Sprintf("stats: bad histogram range [%v, %v]", lo, hi))
	}
	h := Histogram{Lo: lo, Hi: hi, Freq: make([]float64, bins), N: len(values)}
	if len(values) == 0 {
		return h
	}
	scale := float64(bins) / (hi - lo)
	for _, v := range values {
		b := int((v - lo) * scale)
		if b < 0 {
			b = 0
		} else if b >= bins {
			b = bins - 1
		}
		h.Freq[b]++
	}
	inv := 1.0 / float64(len(values))
	for i := range h.Freq {
		h.Freq[i] *= inv
	}
	return h
}

// TotalVariation returns ½·Σ|p−q|, in [0, 1] for normalized inputs.
func TotalVariation(p, q []float64) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("stats: TV length mismatch %d vs %d", len(p), len(q)))
	}
	s := 0.0
	for i := range p {
		s += math.Abs(p[i] - q[i])
	}
	return s / 2
}

// Summary holds the basic moments of a sample.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Max, Median float64
}

// Summarize computes a Summary of values.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	s := Summary{N: len(values)}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.Median = sorted[len(sorted)/2]
	for _, v := range values {
		s.Mean += v
	}
	s.Mean /= float64(len(values))
	ss := 0.0
	for _, v := range values {
		d := v - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(values)))
	return s
}

// Pearson returns the Pearson correlation coefficient between x and y.
// It is the quantity inside the paper's Eq 1 (before the λ scaling and
// absolute value). Returns 0 when either input is constant.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: Pearson length mismatch %d vs %d", len(x), len(y)))
	}
	if len(x) == 0 {
		return 0
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	n := float64(len(x))
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Package metrics is the measurement substrate of the reproduction — a
// stdlib substitute for the LibLSB scientific-benchmarking library the
// paper used. It provides robust summary statistics (median,
// bootstrap-free 95% confidence intervals on the median via order
// statistics), exponential moving averages (used by the DV to track
// restart latencies, Sec. IV-C1c), and an experiment recorder that prints
// the row/series layouts of the paper's tables and figures.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds order statistics of a sample.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	// CILow and CIHigh bound the nonparametric 95% confidence interval of
	// the median (binomial order-statistic method, as recommended by the
	// scientific-benchmarking guidelines the paper follows).
	CILow  float64
	CIHigh float64
	Stddev float64
}

// Summarize computes summary statistics of xs. It returns a zero Summary
// for an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)

	var sum, sq float64
	for _, v := range s {
		sum += v
	}
	mean := sum / float64(n)
	for _, v := range s {
		sq += (v - mean) * (v - mean)
	}
	sd := 0.0
	if n > 1 {
		sd = math.Sqrt(sq / float64(n-1))
	}

	lo, hi := medianCI95(n)
	return Summary{
		N:      n,
		Min:    s[0],
		Max:    s[n-1],
		Mean:   mean,
		Median: percentileSorted(s, 0.5),
		CILow:  s[lo],
		CIHigh: s[hi],
		Stddev: sd,
	}
}

// percentileSorted returns the p-quantile (0≤p≤1) of an ascending-sorted
// sample using linear interpolation.
func percentileSorted(s []float64, p float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return s[0]
	}
	pos := p * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return s[n-1]
	}
	frac := pos - float64(i)
	return s[i]*(1-frac) + s[i+1]*frac
}

// medianCI95 returns the (0-based) order-statistic indices bounding a ~95%
// confidence interval of the median for a sample of size n, using the
// normal approximation to the binomial: rank = n/2 ± 1.96·√n/2.
func medianCI95(n int) (lo, hi int) {
	if n < 2 {
		return 0, n - 1
	}
	d := 1.96 * math.Sqrt(float64(n)) / 2
	lo = int(math.Floor(float64(n)/2 - d))
	hi = int(math.Ceil(float64(n)/2+d)) - 1
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d median=%.4g [%.4g,%.4g] mean=%.4g sd=%.4g",
		s.N, s.Median, s.CILow, s.CIHigh, s.Mean, s.Stddev)
}

// EMA is an exponential moving average with smoothing factor f in (0,1]:
// v ← f·x + (1−f)·v. The DV uses it to track restart latencies so that
// "only the most recent observation" dominates (Sec. IV-C1c).
type EMA struct {
	f      float64
	v      float64
	primed bool
}

// NewEMA returns an EMA with the given smoothing factor. Factors outside
// (0,1] are clamped to 0.5.
func NewEMA(f float64) *EMA {
	if f <= 0 || f > 1 {
		f = 0.5
	}
	return &EMA{f: f}
}

// Observe folds a new observation into the average.
func (e *EMA) Observe(x float64) {
	if !e.primed {
		e.v = x
		e.primed = true
		return
	}
	e.v = e.f*x + (1-e.f)*e.v
}

// Value returns the current average, or def if nothing was observed yet.
func (e *EMA) Value(def float64) float64 {
	if !e.primed {
		return def
	}
	return e.v
}

// Reset clears the average.
func (e *EMA) Reset() { e.primed = false; e.v = 0 }

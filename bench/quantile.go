package main

import (
	"math"
	"sort"
)

// timing summarises one class of latency samples the way the metrics guide
// asks: the median, p99, and the highest percentile that still has at least
// ten samples beyond it, with the sample count. Values are in the unit the
// samples were recorded in.
type timing struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
	TopPct float64 `json:"top_pct"` // 0 when even the median has < 10 samples beyond it
	Top    float64 `json:"top"`
}

// percentileLadder is the set of percentiles topPercentile chooses from.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// rankIndex returns the nearest-rank index of the p-th percentile among n
// sorted samples (n > 0, 0 < p <= 100).
func rankIndex(n int, p float64) int {
	// The epsilon keeps a product that should be whole (99.9 % of 1000) from
	// rounding up past it.
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank p-th percentile of sorted (ascending).
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[rankIndex(len(sorted), p)])
}

// topPercentile returns the highest rung of percentileLadder that leaves at
// least ten of n samples strictly beyond its rank, or 0 if none does. A tail
// percentile read off fewer samples than that is one outlier's position, not
// a property of the distribution.
func topPercentile(n int) float64 {
	top := 0.0
	for _, p := range percentileLadder {
		if n-1-rankIndex(n, p) >= 10 {
			top = p
		}
	}
	return top
}

// summarize sorts samples in place and returns their timing summary scaled
// by 1/div (e.g. 1e3 turns nanosecond samples into microseconds).
func summarize(samples []int64, div float64) timing {
	if len(samples) == 0 {
		return timing{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	t := timing{
		N:      len(samples),
		P50:    percentile(samples, 50) / div,
		P90:    percentile(samples, 90) / div,
		P95:    percentile(samples, 95) / div,
		P99:    percentile(samples, 99) / div,
		TopPct: topPercentile(len(samples)),
	}
	if t.TopPct > 0 {
		t.Top = percentile(samples, t.TopPct) / div
	}
	return t
}

// median returns the middle of values (mean of the middle two when even).
// It does not modify values.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of values by the method of
// Python's statistics.quantiles(values, n=4) (the "exclusive" method), which
// is what the acceptance driver computes spreads with. It needs two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of values as a share of their
// median: the run-to-run noise a bound has to be compared with.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	m := median(values)
	if math.IsNaN(q1) || m == 0 {
		return math.NaN()
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

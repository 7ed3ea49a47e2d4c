package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest value with at least p percent of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n ≥ 1
// samples. The small subtraction keeps 99.9 % of 10000 at rank 9990 when
// the product comes out a few ulps above it.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, p)
}

// percentileLadder lists the tail levels the benchmark may report.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// highestPercentile picks the highest level of the ladder that still has
// at least ten samples beyond it — a tail read off fewer samples is the
// noise of a handful of requests, not a property of the system. It
// returns 0 when even the median has fewer than ten samples beyond it.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if samplesBeyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is what the acceptance rule for this
// benchmark is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

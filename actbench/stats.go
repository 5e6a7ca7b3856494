package main

import (
	"math"
	"sort"
)

// pct returns the nearest-rank p-th percentile (0 < p <= 100) of vals,
// which it sorts in place. An empty slice yields NaN.
func pct(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	if !sort.Float64sAreSorted(vals) {
		sort.Float64s(vals)
	}
	i := int(math.Ceil(p/100*float64(len(vals)))) - 1
	return vals[max(0, min(i, len(vals)-1))]
}

// beyond reports how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// quartiles returns the first quartile, median and third quartile of vals
// by the same rule as Python's statistics.quantiles(vals, n=4) with its
// default exclusive method, so spreads printed here match the ones
// computed from the same values elsewhere. vals is sorted in place; it
// needs at least two values.
func quartiles(vals []float64) (q1, med, q3 float64) {
	sort.Float64s(vals)
	n := len(vals)
	if n == 1 {
		return vals[0], vals[0], vals[0]
	}
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		j = max(1, min(j, n-1))
		out[i-1] = (vals[j-1]*float64(4-delta) + vals[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

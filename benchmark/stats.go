package main

import (
	"math"
	"sort"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (the mean of the two middle values for
// an even count), 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tail returns the value at the highest percentile <= maxPct that still
// has at least ten samples beyond it, and that percentile. With fewer
// than 20 samples there is no such percentile above the median and tail
// reports the median.
func tail(v []float64, maxPct float64) (value, pct float64) {
	n := len(v)
	if n == 0 {
		return 0, 0
	}
	pct = math.Min(maxPct, 100*(1-10/float64(n)))
	if pct < 50 {
		return median(v), 50
	}
	i := int(math.Ceil(pct/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted(v)[i], pct
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method),
// which is what the driver uses for its spread. It needs two values.
func quartiles(v []float64) (q1, q3 float64, ok bool) {
	n := len(v)
	if n < 2 {
		return 0, 0, false
	}
	s := sorted(v)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after clamping, as Python does: it extrapolates
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3), true
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise a bound has to clear.
func spread(v []float64) float64 {
	q1, q3, ok := quartiles(v)
	m := median(v)
	if !ok || m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

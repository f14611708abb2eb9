package main

import "sort"

// median returns the middle of xs (mean of the two middle values for an
// even count). xs is not modified.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the same
// rule as Python's statistics.quantiles(xs, n=4) (method "exclusive"), so
// the spreads this program prints are the ones a Python reader computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// tailLadder is the percentile ladder a timing's tail is chosen from.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile picks the highest percentile of tailLadder that has at
// least minBeyond samples strictly beyond its nearest-rank position, and
// returns it with its value. ok is false when no ladder step qualifies
// (fewer than 2*minBeyond samples): a tail estimate resting on fewer
// samples would be one outlier.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailLadder {
		rank := nearestRank(p, n)
		if rank >= 1 && n-rank >= minBeyond {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}

// nearestRank is the 1-based nearest-rank position of percentile p among n
// sorted samples: ceil(p/100 * n), in integer tenths of a percent so that
// float rounding cannot move a rank.
func nearestRank(p float64, n int) int {
	tenths := int(p*10 + 0.5)
	return (tenths*n + 999) / 1000
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

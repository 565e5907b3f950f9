package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 over 300 samples is three points of noise.
const minTail = 10

// percentile returns the q-th percentile (0 < q < 100) of sorted, by the
// nearest-rank rule. ok is false when fewer than minTail samples lie
// beyond it, in which case the value is not evidence and callers must not
// print it as one.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n)/100 - 1e-9)) // 99.9 % of 100000 is 99900, not 99900.00000000001
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minTail
}

// highestPercentile returns the highest rung of the ladder 50, 90, 99,
// 99.9 that sorted supports under the minTail rule (0 if none).
func highestPercentile(sorted []float64) float64 {
	best := 0.0
	for _, q := range []float64{50, 90, 99, 99.9} {
		if _, ok := percentile(sorted, q); ok {
			best = q
		}
	}
	return best
}

// quartiles returns the first quartile, median and third quartile of xs
// by linear interpolation; xs need not be sorted and is left untouched.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

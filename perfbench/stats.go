package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail timing may be reported at, from
// the highest down, in per mille.
var tailLadder = []int{990, 950, 900, 750}

// tailQuantile picks the highest percentile on the ladder that leaves at
// least ten of n samples beyond it; with fewer than 40 samples even p75
// does not qualify and the median (0.5) is used.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if n*(1000-q)/1000 >= 10 {
			return float64(q) / 1000
		}
	}
	return 0.5
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the inclusive method). xs need not be sorted; it is not
// modified. An empty xs yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// timing is a reported latency summary: the median and the tail at the
// highest supported percentile, with the sample count.
type timing struct {
	N     int
	P50   float64
	TailQ float64
	Tail  float64
}

func summarize(xs []float64) timing {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t := timing{N: len(s), TailQ: tailQuantile(len(s))}
	if len(s) > 0 {
		t.P50 = sortedQuantile(s, 0.5)
		t.Tail = sortedQuantile(s, t.TailQ)
	}
	return t
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

package main

import (
	"math"
	"testing"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.9},
		{100, 0.9}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {1, 0.5}, {0, 0.5},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeReportsTheChosenPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100 down to 1: input order must not matter
	}
	s := summarize(xs)
	if s.N != 100 || s.TailQ != 0.9 {
		t.Fatalf("summarize: n=%d q=%v, want n=100 q=0.9", s.N, s.TailQ)
	}
	if s.P50 != 50.5 {
		t.Errorf("p50 = %v, want 50.5", s.P50)
	}
	if math.Abs(s.Tail-90.1) > 1e-9 {
		t.Errorf("p90 = %v, want 90.1", s.Tail)
	}
	// At least ten samples lie strictly beyond the reported tail.
	beyond := 0
	for _, x := range xs {
		if x > s.Tail {
			beyond++
		}
	}
	if beyond < 10 {
		t.Errorf("%d samples beyond the tail, want at least 10", beyond)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
}

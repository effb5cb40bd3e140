package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so summarize must sort
	}
	return xs
}

func TestSummarizePicksTheHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		p50, tail float64
		tailQ     float64
	}{
		{n: 1, p50: 1, tail: 1, tailQ: 0.5},
		{n: 4, p50: 2.5, tail: 2.5, tailQ: 0.5},    // too few for p90: the median
		{n: 99, p50: 50, tail: 50, tailQ: 0.5},     // p90 would leave 9 beyond
		{n: 100, p50: 50.5, tail: 90, tailQ: 0.90}, // p90 leaves exactly 10
		{n: 999, p50: 500, tail: 900, tailQ: 0.90}, // p99 would leave 9
		{n: 1000, p50: 500.5, tail: 990, tailQ: 0.99},
	} {
		l := summarize(seq(tc.n))
		if l.N != tc.n || l.P50 != tc.p50 || l.Tail != tc.tail || l.TailQ != tc.tailQ {
			t.Errorf("summarize(1..%d) = %+v, want n=%d p50=%g tail=%g tailQ=%g", tc.n, l, tc.n, tc.p50, tc.tail, tc.tailQ)
		}
	}
	if l := summarize(nil); l != (latency{}) {
		t.Errorf("summarize(nil) = %+v, want zero", l)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := seq(200)
	if got := percentile(xs, 50); got != 100 {
		t.Errorf("p50 of 1..200 = %g, want 100", got)
	}
	if got := percentile(xs, 99); got != 198 {
		t.Errorf("p99 of 1..200 = %g, want 198", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("p99 of nothing = %g, want 0", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7, 1, 3}, 1, 3, 7},
		{[]float64{10, 20}, 7.5, 15, 22.5}, // extrapolates, as Python does
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

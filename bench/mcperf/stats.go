package main

import "sort"

// latency summarises one set of timing samples the way this benchmark
// reports every timing: the median, the highest of p99/p90 that still has
// at least ten samples beyond it, and the sample count. With fewer than
// 100 samples neither percentile qualifies and the tail is the median
// (TailQ = 0.5): a handful of long operations supports no tail.
type latency struct {
	N     int
	P50   float64
	Tail  float64
	TailQ float64
}

func summarize(xs []float64) latency {
	n := len(xs)
	if n == 0 {
		return latency{}
	}
	s := sortedCopy(xs)
	l := latency{N: n, P50: median(s)}
	for _, pct := range []int{99, 90} {
		if rank := (pct*n + 99) / 100; n-rank >= 10 { // nearest rank: ceil(pct/100 · n)
			l.Tail, l.TailQ = s[rank-1], float64(pct)/100
			return l
		}
	}
	l.Tail, l.TailQ = l.P50, 0.5
	return l
}

// percentile is the nearest-rank pct-th percentile of xs (0 for no
// samples), for per-layer numbers that name their percentile explicitly.
func percentile(xs []float64, pct int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := max((pct*len(s)+99)/100, 1)
	return s[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an already sorted, non-empty slice.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile by the
// same rule as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads printed here match the ones an
// acceptance script computes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(2), q(3)
}

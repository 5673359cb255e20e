package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the p-quantile (0 <= p <= 1) of an ascending slice by
// ceil nearest-rank: rank ceil(p*n), the smallest sample with at least
// a p fraction of the data at or below it. It is the rule of
// internal/metrics.Percentile (a test holds the two together) without
// that function's copy-and-sort per call, which a million samples and
// five quantiles cannot afford.
func percentile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// highestSupported is the highest of the reported tail percentiles (p90,
// p99, p99.9) that n samples support, or 0.5 when they support none. A
// percentile is supported when at least ten samples lie beyond its
// nearest rank, the least the choosing-metrics guide accepts.
func highestSupported(n int) float64 {
	best := 0.5
	for _, q := range []float64{0.90, 0.99, 0.999} {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			best = q
		}
	}
	return best
}

// median and quartiles of a handful of per-run values (selfcheck, and
// the several set-ups of one run). Quartiles use the exclusive method,
// as Python's statistics.quantiles(values, n=4) does, because the
// driver measures spread with that function.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

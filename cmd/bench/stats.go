package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of an ascending-sorted slice:
// the smallest sample with at least q·n samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailQuantile is the highest quantile, at most p99, whose nearest-rank
// sample still has at least ten samples beyond it. With n ≥ 1000 that is
// p99; below, it is (n−10)/n; with ten samples or fewer there is no such
// quantile and the maximum (q = 1) is used.
func tailQuantile(n int) float64 {
	switch {
	case n >= 1000:
		return 0.99
	case n > 10:
		return float64(n-10) / float64(n)
	default:
		return 1
	}
}

// latencyStats summarizes one set of latency samples (milliseconds).
type latencyStats struct {
	N         int
	P50, Tail float64
	TailQ     float64 // the quantile Tail was taken at
}

func summarize(ms []float64) latencyStats {
	if len(ms) == 0 {
		return latencyStats{}
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	q := tailQuantile(len(s))
	return latencyStats{N: len(s), P50: percentile(s, 0.5), Tail: percentile(s, q), TailQ: q}
}

// median is the middle value (the mean of the two middle values for an
// even count); it summarizes a handful of passes or windows.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive values (0 for none); it
// summarizes latencies of keys whose costs differ by orders of magnitude
// without letting the slowest key decide it alone.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var logs float64
	for _, x := range v {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(v)))
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// share is part/whole as a percentage (0 when whole is 0).
func share(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part / whole
}

package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule; sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle of v (mean of the two middle values for an even
// count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of v exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), which is what
// the acceptance gate of this benchmark computes; it needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// summary condenses repeated measurements of one metric.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Noise is the interquartile range as a share of the median — the
	// spread the acceptance gate compares against a metric's bound.
	Noise float64 `json:"noise"`
	N     int     `json:"n"`
}

func summarize(v []float64) summary {
	s := summary{Median: median(v), N: len(v)}
	s.Q1, s.Q3 = quartiles(v)
	if s.Median != 0 {
		s.Noise = (s.Q3 - s.Q1) / math.Abs(s.Median)
	}
	return s
}

// selfTime is a span's duration minus the part its child covers; a child
// measured slower than its parent (the two are timed by separate calls, so
// noise can invert them) leaves no self time rather than a negative one.
func selfTime(span, child float64) float64 {
	if child >= span {
		return 0
	}
	return span - child
}

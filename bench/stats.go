package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of xs by the
// nearest-rank rule on a sorted copy: the smallest sample with at least
// p of the mass at or below it. Nearest rank never interpolates, so a
// reported p99 is a latency that some decision actually had. It returns
// NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// spread summarises one metric over the runs of a set: the median, and
// the quartiles that say how far seeds and this box's moods moved it.
type spread struct {
	Q1, Median, Q3 float64
}

// summarize computes a spread. Quartiles use the same exclusive method
// as Python's statistics.quantiles(n=4), which is what the acceptance
// check applies to the ten-seed runs; with fewer than two samples the
// quartiles collapse onto the single value.
func summarize(xs []float64) spread {
	if len(xs) == 0 {
		nan := math.NaN()
		return spread{Q1: nan, Median: nan, Q3: nan}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sp spread
	sp.Q1, sp.Median, sp.Q3 = quartiles(s)
	return sp
}

// quartiles returns the quartiles of a sorted sample exactly as Python's
// statistics.quantiles(data, n=4) (method "exclusive") computes them,
// including its linear extrapolation when a cut point falls outside the
// sample, which happens only below three samples.
func quartiles(s []float64) (q1, q2, q3 float64) {
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
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
	return at(1), at(2), at(3)
}

// iqrShare is the interquartile distance as a share of the median: the
// run-to-run spread the acceptance check compares with a metric's bound.
func (s spread) iqrShare() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func median(xs []float64) float64 { return summarize(xs).Median }

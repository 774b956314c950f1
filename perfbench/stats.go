package main

import (
	"math"
	"sort"
	"time"
)

// summary is one metric's in-run sample set reduced to the figures every
// record carries: the sample count, the median and the quartiles.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize reduces samples to a summary. The quartiles follow Python's
// statistics.quantiles(values, n=4) with its default exclusive method, so
// in-run spreads read the same way as the spreads across runs.
func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	s := summary{N: len(xs), Median: median(xs)}
	if len(xs) == 1 {
		s.Q1, s.Q3 = xs[0], xs[0]
		return s
	}
	s.Q1 = quantileExclusive(xs, 1)
	s.Q3 = quantileExclusive(xs, 3)
	return s
}

// median of sorted xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantileExclusive returns the i-th of the three cut points dividing the
// sorted xs (len ≥ 2) into quarters, by the exclusive method.
func quantileExclusive(xs []float64, i int) float64 {
	const parts = 4
	m := len(xs) + 1
	j := i * m / parts
	if j < 1 {
		j = 1
	}
	if j > len(xs)-1 {
		j = len(xs) - 1
	}
	delta := i*m - j*parts
	return (xs[j-1]*float64(parts-delta) + xs[j]*float64(delta)) / parts
}

// nearestRank returns the q-quantile of xs by the nearest-rank method:
// the ⌈q·n⌉-th smallest value.
func nearestRank(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// medianOf is summarize(samples).Median.
func medianOf(samples []float64) float64 { return summarize(samples).Median }

// failFrac is failed operations over attempted ones (0 when none ran).
func failFrac(attempted, failed int64) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// interval is one span's [start, end) on a shared clock.
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap one another and may spill past the parent; only
// their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

package main

import (
	"math"
	"sort"
	"time"
)

// dist is a sample of durations or values; percentiles are taken by the
// nearest-rank rule on a sorted copy.
type dist []float64

func (d dist) sorted() dist {
	s := append(dist(nil), d...)
	sort.Float64s(s)
	return s
}

// pct returns the p-th percentile (0 < p <= 1) by nearest rank, or 0 for
// an empty sample.
func (d dist) pct(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := d.sorted()
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func (d dist) median() float64 { return d.pct(0.5) }

func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	return sum / float64(len(d))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func secs(d time.Duration) float64 { return d.Seconds() }

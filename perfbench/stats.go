package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Quantiles here are computed exactly from raw samples, never read
// from obs power-of-two histogram buckets. Tail quantiles use the
// nearest-rank method: the q-quantile of n samples is the
// ceil(q*n)-th smallest, a value that was actually observed.

// quantile returns the nearest-rank q-quantile of samples (0 < q <= 1).
// samples need not be sorted; it is not modified.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := sorted(samples)
	return s[rank(len(s), q)]
}

// rank is the zero-based index of the nearest-rank q-quantile of n
// sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the midpoint of the two middle
// samples of an even count.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailQuantiles are the tail percentiles tried, highest first. The
// first one with at least tailMinBeyond samples strictly above it is
// reported; p75 and p50 extend the rule to small sample counts.
var tailQuantiles = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

const tailMinBeyond = 10

// Tail is one reported tail latency: the percentile chosen, its value,
// the sample count and how many samples lie strictly above it.
type Tail struct {
	Label  string  `json:"percentile"`
	Value  float64 `json:"value"`
	N      int     `json:"samples"`
	Beyond int     `json:"beyond"`
}

// tailOf picks the highest percentile of tailQuantiles with at least
// tailMinBeyond samples strictly above it. With too few samples for
// any of them it reports the maximum.
func tailOf(samples []float64) Tail {
	s := sorted(samples)
	n := len(s)
	if n == 0 {
		return Tail{Label: "none"}
	}
	for _, q := range tailQuantiles {
		i := rank(n, q)
		v := s[i]
		beyond := n - sort.Search(n, func(j int) bool { return s[j] > v })
		if beyond >= tailMinBeyond {
			return Tail{Label: fmt.Sprintf("p%g", q*100), Value: v, N: n, Beyond: beyond}
		}
	}
	return Tail{Label: "max", Value: s[n-1], N: n}
}

// Quant is one quantile printed with its sample count.
type Quant struct {
	Label string  `json:"percentile"`
	Value float64 `json:"value"`
	N     int     `json:"samples"`
}

func p50(samples []float64) Quant {
	return Quant{Label: "median", Value: median(samples), N: len(samples)}
}

// interval is a half-open time span [Start, End).
type interval struct{ Start, End time.Time }

func (iv interval) dur() time.Duration { return iv.End.Sub(iv.Start) }

// covered returns how much of parent the union of children covers.
// Children are clipped to the parent; overlapping children count once.
func covered(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Start.Before(parent.Start) {
			c.Start = parent.Start
		}
		if c.End.After(parent.End) {
			c.End = parent.End
		}
		if c.End.After(c.Start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start.Before(clipped[j].Start) })
	var total time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.Start.After(cur.End):
			if c.End.After(cur.End) {
				cur.End = c.End
			}
		default:
			total += cur.dur()
			cur = c
		}
	}
	if len(clipped) > 0 {
		total += cur.dur()
	}
	return total
}

// selfTime is a span's duration minus the part of its interval its
// child spans cover.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.dur() - covered(parent, children)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

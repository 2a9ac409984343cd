package main

import (
	"math"
	"sort"

	"automatazoo/bench/catalog"
)

// median returns the middle value (mean of the two middle values for an even
// count); NaN for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of strictly positive values; NaN for
// none. A non-positive value is a caller bug (rates are filtered before).
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// acceptance protocol uses for the spread. Needs at least two samples.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4 // outside [0,4] after clamping: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// streamMBps is the throughput of a stream case. The marginal rate is the
// bytes the run consumed beyond its twin over the time it took beyond its
// twin; the gross rate (table1) is all the bytes over the whole run. ok is
// false when the twin was not faster than the run: the caller counts that as
// a failed operation instead of reporting a negative or infinite rate.
func streamMBps(c catalog.Case, runS, twinS float64) (mbps float64, ok bool) {
	if !(twinS < runS) {
		return 0, false
	}
	bytes, dt := float64(c.Input-catalog.TwinInput), runS-twinS
	if c.Gross() {
		bytes, dt = float64(c.Streams()*c.Input), runS
	}
	if bytes <= 0 {
		return 0, false
	}
	return bytes / dt / 1e6, true
}

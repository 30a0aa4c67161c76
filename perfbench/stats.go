package main

import (
	"math/rand"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// subWindows is how many consecutive slices windowed splits a run into.
const subWindows = 5

// windowed is the median over subWindows consecutive slices of xs (in
// the order the samples were taken) of each slice's q-quantile. Other
// tenants of a shared host slow it in bursts; a burst moves one slice's
// tail but not the median slice, so windowed tails repeat from run to
// run where pooled ones do not.
func windowed(xs []float64, q float64) float64 {
	if len(xs) < subWindows {
		return quantile(xs, q)
	}
	per := make([]float64, subWindows)
	for i := range per {
		per[i] = quantile(xs[i*len(xs)/subWindows:(i+1)*len(xs)/subWindows], q)
	}
	return median(per)
}

// fastShare is the share of a phase's calls, the fastest ones, whose
// mean is its gated latency (see fastMean).
const fastShare = 0.02

// fastMean is the mean of the fastest share of xs, at least one sample.
// On a shared host the same memory-bound call runs in two regimes about
// 1.5x apart as other tenants' load comes and goes, for seconds to
// minutes at a time. The mix of the two changes from run to run and
// moves every middle percentile with it, while the fastest calls of a
// run repeat as long as the run sees the quiet regime at all. A change
// to the program moves them as it moves every call. Empty input gives 0.
func fastMean(xs []float64, share float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	return mean(xs[:max(1, int(share*float64(len(xs))))])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// vertices draws count uniform vertex IDs in [0,n).
func vertices(rng *rand.Rand, n, count int) []int32 {
	vs := make([]int32, count)
	for i := range vs {
		vs[i] = int32(rng.Intn(n))
	}
	return vs
}

package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of an ascending-sorted slice by
// linear interpolation between the two nearest order statistics.  An empty
// slice has no quantiles and yields NaN.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns an ascending copy of v without its NaN entries.
func sortedCopy(v []float64) []float64 {
	s := make([]float64, 0, len(v))
	for _, x := range v {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	sort.Float64s(s)
	return s
}

// quantileOf is quantile over an unsorted slice (NaN entries ignored).
func quantileOf(v []float64, q float64) float64 { return quantile(sortedCopy(v), q) }

// median is the 0.5-quantile of an unsorted slice (NaN entries ignored).
func median(v []float64) float64 { return quantileOf(v, 0.5) }

// fastQuantile is the quantile of a set of repeated timings of one operation
// (a unit of 1024 frames, a flow-mod, a cold set-up, a chunk of a ledger
// pass) that the benchmark reports as the operation's time.  On this shared
// box a thread runs at full speed or at about 0.6 of it, in stretches of
// seconds that the guest cannot see, with a few percent of slower drift on
// top; the slow part of a timing distribution measures how long the
// neighbours were busy, the fast part measures the code.  Of the quantiles
// tried on recorded runs (bench/README.md, "Noise rules") the low ones
// repeated best, and the lower the better; 1% is the 650th fastest of a
// run's 65 000 units, the 50th fastest of 5000 flow-mods and, with 15
// set-ups, close to the fastest of them.  The median- and mean-based values
// are reported beside it as layer metrics, so a change that only fattens the
// tail shows.
const fastQuantile = 0.01

// fastOf is the fastQuantile of an unsorted slice.
func fastOf(v []float64) float64 { return quantileOf(v, fastQuantile) }

package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of sorted,
// of which the last `failed` places are taken by operations that never
// completed: a failed operation misses every latency figure, so it ranks
// beyond every success and a percentile that lands on one is +Inf.
func percentile(sorted []float64, failed int, p float64) float64 {
	n := len(sorted) + failed
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		return math.Inf(1)
	}
	return sorted[rank-1]
}

// tailMenu are the percentiles op_tail_ms may be, lowest first.
var tailMenu = []float64{90, 95, 99}

// minBeyond is how many samples must lie beyond a reported percentile for
// it to be more than the story of a few outliers.
const minBeyond = 10

// tailPercentile is the highest percentile of the menu that still has at
// least minBeyond of n samples beyond it; 0 when n is too small for any.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailMenu {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= minBeyond {
			best = p
		}
	}
	return best
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0, 50)
}

func medianDuration(v []time.Duration) time.Duration {
	f := make([]float64, len(v))
	for i, d := range v {
		f[i] = float64(d)
	}
	return time.Duration(median(f))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

package main

import (
	"math"
	"sort"
)

// percentile returns the exact q-quantile (0 ≤ q ≤ 1) of the samples by the
// nearest-rank rule: the smallest sample with at least q of the samples at
// or below it. No interpolation, no buckets. It sorts xs in place and
// returns 0 for an empty slice.
func percentile(xs []float32, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return float64(xs[rank(len(xs), q)])
}

// rank is the nearest-rank index of the q-quantile among n sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// median returns the middle value of xs (mean of the two middle values for
// an even count) without modifying xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// warmWindows is how many windows at the start of a phase are left out of
// its summary: half a second in which connections, caches and the heap
// settle.
const warmWindows = 2

// Which window of a phase stands for the phase. Interference from other
// tenants of the machine only ever slows a window down, so the phase is
// summarised by one of its best windows, not its middle one: the ninth
// decile of the windows' rates, the first decile of their latencies. Across
// runs the middle window of the same code moved by 20 % when the first decile
// moved by 8 %. With thirty windows the decile is the third best, so two
// lucky windows do not move it either.
const (
	rateQuantile    = 0.9
	latencyQuantile = 0.1
)

// windowQuantile summarises a phase by its fixed-length windows: it drops the
// warm-up windows, applies f to each remaining one and returns the q-quantile
// of the results by the nearest-rank rule. A phase too short to have windows
// beyond the warm-up keeps its last one.
func windowQuantile[T any](windows []T, f func(T) float64, q float64) float64 {
	if len(windows) == 0 {
		return 0
	}
	windows = windows[min(warmWindows, len(windows)-1):]
	vals := make([]float64, len(windows))
	for i, w := range windows {
		vals[i] = f(w)
	}
	sort.Float64s(vals)
	return vals[rank(len(vals), q)]
}

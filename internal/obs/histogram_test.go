package obs

import (
	"math"
	"testing"
)

// Regression tests for Quantile's edge behavior (PR 4 satellite): the
// estimator must stay finite and sensible at the boundaries where naive
// bucket interpolation goes wrong.

// TestQuantileEmpty: an empty histogram estimates 0 for every q, including
// the boundaries.
func TestQuantileEmpty(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, q := range []float64{0, 0.5, 1, -1, 2, math.NaN()} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty.Quantile(%v) = %v, want 0", q, got)
		}
	}
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil.Quantile(0.5) = %v, want 0", got)
	}
}

// TestQuantileSingleObservation: with one observation every quantile lands
// inside that observation's bucket — never outside it, never NaN.
func TestQuantileSingleObservation(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	h.Observe(1.5) // bucket (1, 2]
	for _, q := range []float64{0, 0.25, 0.5, 1} {
		got := h.Quantile(q)
		if got < 1 || got > 2 {
			t.Errorf("Quantile(%v) = %v, want within (1, 2]", q, got)
		}
	}
	// q=0 pins the bucket's lower bound, q=1 its upper bound.
	if got := h.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 2 {
		t.Errorf("Quantile(1) = %v, want 2", got)
	}
}

// TestQuantileAllOverflow: observations above every finite bound clamp to
// the highest finite bound, as Prometheus's histogram_quantile does.
func TestQuantileAllOverflow(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for i := 0; i < 10; i++ {
		h.Observe(100)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 4 {
			t.Errorf("Quantile(%v) = %v, want 4 (highest finite bound)", q, got)
		}
	}
}

// TestQuantileNaN: a NaN q must not poison the estimate — it clamps like an
// out-of-range q instead of failing every comparison in the scan.
func TestQuantileNaN(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	h.Observe(0.5)
	h.Observe(1.5)
	got := h.Quantile(math.NaN())
	if math.IsNaN(got) {
		t.Fatal("Quantile(NaN) returned NaN")
	}
	if want := h.Quantile(0); got != want {
		t.Errorf("Quantile(NaN) = %v, want Quantile(0) = %v", got, want)
	}
}

// TestQuantileOutOfRange: q below 0 and above 1 clamp to the boundary
// estimates.
func TestQuantileOutOfRange(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	h.Observe(0.5)
	h.Observe(3)
	if got, want := h.Quantile(-0.5), h.Quantile(0); got != want {
		t.Errorf("Quantile(-0.5) = %v, want %v", got, want)
	}
	if got, want := h.Quantile(1.5), h.Quantile(1); got != want {
		t.Errorf("Quantile(1.5) = %v, want %v", got, want)
	}
}

// TestQuantileSkipsEmptyLeadingBuckets: q=0 reports the lower bound of the
// first non-empty bucket, not of the first bucket overall.
func TestQuantileSkipsEmptyLeadingBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	h.Observe(3) // bucket (2, 4]
	if got := h.Quantile(0); got != 2 {
		t.Errorf("Quantile(0) = %v, want 2 (lower bound of first non-empty bucket)", got)
	}
}

// The HDR log-bucketed latency preset and the exact-max tracking behind the
// stage-latency view's quantiles (LatencyView, /debug/latency).

// TestLogBuckets pins the generator's shape: log-spaced, deduplicated,
// strictly increasing, covering [lo, hi].
func TestLogBuckets(t *testing.T) {
	b := LogBuckets(1e-6, 1, 3)
	if b[0] != 1e-6 {
		t.Fatalf("first bound = %v, want 1e-6", b[0])
	}
	if last := b[len(b)-1]; last < 1 {
		t.Fatalf("last bound = %v, want ≥ 1", last)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %v ≤ %v", i, b[i], b[i-1])
		}
	}
	// 3 per decade over 6 decades ≈ 19 bounds: resolution stays bounded.
	if len(b) < 18 || len(b) > 20 {
		t.Fatalf("len = %d, want ≈ 19", len(b))
	}
}

// TestLogBucketsPanicsOnBadArgs: misuse is a programming error, caught loudly.
func TestLogBucketsPanicsOnBadArgs(t *testing.T) {
	for _, c := range []struct {
		lo, hi float64
		per    int
	}{
		{0, 1, 3}, {-1, 1, 3}, {1, 1, 3}, {2, 1, 3}, {1e-6, 1, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LogBuckets(%v, %v, %d) did not panic", c.lo, c.hi, c.per)
				}
			}()
			LogBuckets(c.lo, c.hi, c.per)
		}()
	}
}

// TestHDRLatencyBucketsResolveWideRange is the PR 9 regression the preset
// exists for: the fixed LatencyBuckets ladder saturates at 1s, so any
// multi-second coordinated-omission-corrected tail collapses to "1s". The
// HDR preset must resolve nanosecond floors AND multi-second tails with
// bounded relative error.
func TestHDRLatencyBucketsResolveWideRange(t *testing.T) {
	// The old ladder cannot tell 2s from 8s.
	old := NewHistogram(LatencyBuckets)
	old.Observe(2)
	old.Observe(8)
	if q := old.Quantile(0.99); q > 1 {
		t.Fatalf("LatencyBuckets q99 = %v — expected saturation at 1s (update this test if the ladder grew)", q)
	}

	for _, v := range []float64{50e-9, 800e-9, 3e-6, 250e-6, 1.7e-3, 0.4, 2.5, 8} {
		h := NewHistogram(HDRLatencyBuckets)
		for i := 0; i < 1000; i++ {
			h.Observe(v)
		}
		for _, q := range []float64{0.5, 0.99, 0.999} {
			got := h.Quantile(q)
			if rel := math.Abs(got-v) / v; rel > 0.35 {
				t.Errorf("HDR Quantile(%v) of %v = %v (rel err %.2f), want within bucket resolution", q, v, got, rel)
			}
		}
	}
}

// TestHistogramMaxExact: Max is the exact largest observation, not a bucket
// bound — and 0 until something positive is observed.
func TestHistogramMaxExact(t *testing.T) {
	h := NewHistogram(HDRLatencyBuckets)
	if h.Max() != 0 {
		t.Fatalf("empty Max = %v", h.Max())
	}
	h.Observe(0.00137)
	h.Observe(4.2)
	h.Observe(0.9)
	if got := h.Max(); got != 4.2 {
		t.Fatalf("Max = %v, want 4.2 exactly", got)
	}
	var nilH *Histogram
	if nilH.Max() != 0 {
		t.Fatal("nil Max != 0")
	}
	if got := h.Mean(); math.Abs(got-(0.00137+4.2+0.9)/3) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
}

package txtrace

import (
	"math"
	"math/rand"
	"testing"
)

// TestBucketLayout pins the log-linear geometry: every value lands in a
// bucket whose bounds contain it, and above the unit-bucket region the
// relative bucket width never exceeds 1/2^histSubBits.
func TestBucketLayout(t *testing.T) {
	values := []uint64{0, 1, 7, 8, 9, 15, 16, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, math.MaxUint64}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10_000; i++ {
		values = append(values, rng.Uint64()>>uint(rng.Intn(64)))
	}
	for _, v := range values {
		i := bucketIndex(v)
		if i < 0 || i >= histNumBkts {
			t.Fatalf("bucketIndex(%d) = %d, out of range", v, i)
		}
		lo, hi := bucketLower(i), bucketUpper(i)
		// The final bucket's upper bound saturates at MaxUint64 (2^64 is
		// unrepresentable) and is inclusive; every other bound is exclusive.
		if v < lo || (i+1 < histNumBkts && v >= hi) {
			t.Fatalf("value %d outside its bucket %d: [%d, %d)", v, i, lo, hi)
		}
		if v >= histSub && i+1 < histNumBkts {
			if width := float64(hi-lo) / float64(lo); width > 1.0/histSub+1e-9 {
				t.Fatalf("bucket %d width %.4f exceeds %.4f (lo=%d hi=%d)", i, width, 1.0/histSub, lo, hi)
			}
		}
	}
	// Buckets tile the axis: each bucket's exclusive upper bound is the
	// next bucket's lower bound.
	for i := 0; i+1 < histNumBkts; i++ {
		if bucketUpper(i) != bucketLower(i+1) {
			t.Fatalf("bucket %d upper %d != bucket %d lower %d", i, bucketUpper(i), i+1, bucketLower(i+1))
		}
	}
}

// TestGoldenQuantiles checks quantile estimates against a known
// distribution: the uniform integers 1..N have exactly computable
// quantiles, and the log-bucket estimate must land within the bucket's
// 12.5% relative width.
func TestGoldenQuantiles(t *testing.T) {
	const n = 10_000
	var h histogram
	for v := uint64(1); v <= n; v++ {
		h.Observe(v)
	}
	if h.count != n {
		t.Fatalf("count = %d, want %d", h.count, n)
	}
	if h.min != 1 || h.max != n {
		t.Fatalf("min/max = %d/%d, want 1/%d", h.min, h.max, n)
	}
	for _, tc := range []struct {
		q     float64
		exact float64
	}{
		{0.50, 5000}, {0.90, 9000}, {0.95, 9500}, {0.99, 9900}, {1.0, 10000},
	} {
		got := h.Quantile(tc.q)
		if rel := math.Abs(got-tc.exact) / tc.exact; rel > 1.0/histSub {
			t.Errorf("q%.2f = %f, want %f within %.1f%% (off by %.1f%%)",
				tc.q, got, tc.exact, 100.0/histSub, 100*rel)
		}
	}
	// Values below 2^histSubBits live in exact unit buckets: quantiles
	// over small values are exact, not approximate.
	var small histogram
	for _, v := range []uint64{1, 2, 3, 4, 5, 6, 7} {
		small.Observe(v)
	}
	if got := small.Quantile(0.5); got != 4 {
		t.Errorf("small p50 = %f, want exactly 4", got)
	}
	if got := small.Quantile(1.0); got != 7 {
		t.Errorf("small p100 = %f, want exactly 7", got)
	}
}

// TestQuantileEdge pins the empty and single-observation cases.
func TestQuantileEdge(t *testing.T) {
	var h histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty p50 = %f, want 0", got)
	}
	h.Observe(42)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Quantile(q); got != 42 {
			t.Errorf("single-value q%.1f = %f, want 42", q, got)
		}
	}
}

// TestQuantileOK pins Quantile's guard: an empty histogram and a NaN
// rank both report 0 (NaN comparisons are all false, so a NaN q would
// otherwise slip past the rank clamps), while out-of-range q on a
// non-empty histogram is clamped to the q=0 and q=1 lookups.
func TestQuantileOK(t *testing.T) {
	var h histogram
	if got := h.Quantile(math.NaN()); got != 0 {
		t.Errorf("empty NaN quantile = %f, want 0", got)
	}
	h.Observe(3)
	h.Observe(7)
	if got := h.Quantile(math.NaN()); got != 0 {
		t.Errorf("NaN quantile = %f, want 0", got)
	}
	if got, want := h.Quantile(-1), h.Quantile(0); got != want || got != 3 {
		t.Errorf("Quantile(-1) = %f, Quantile(0) = %f; want both 3", got, want)
	}
	if got, want := h.Quantile(2), h.Quantile(1); got != want || got != 7 {
		t.Errorf("Quantile(2) = %f, Quantile(1) = %f; want both 7", got, want)
	}
}

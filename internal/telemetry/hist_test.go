package telemetry

import (
	"bytes"
	"errors"
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
	var h Histogram
	for v := uint64(1); v <= n; v++ {
		h.Observe(v)
	}
	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	if h.Min() != 1 || h.Max() != n {
		t.Fatalf("min/max = %d/%d, want 1/%d", h.Min(), h.Max(), n)
	}
	if mean := h.Mean(); math.Abs(mean-(n+1)/2.0) > 0.5 {
		t.Fatalf("mean = %f, want %f", mean, (n+1)/2.0)
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
	var small Histogram
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
	var h Histogram
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

// TestQuantileOK pins the guarded variant: an empty histogram and a NaN
// rank both report ok=false (NaN comparisons are all false, so it would
// otherwise slip past the rank clamps), and valid lookups report the
// same value as Quantile with ok=true.
func TestQuantileOK(t *testing.T) {
	var h Histogram
	if v, ok := h.QuantileOK(0.5); ok || v != 0 {
		t.Errorf("empty QuantileOK = %f, %v; want 0, false", v, ok)
	}
	h.Observe(42)
	if v, ok := h.QuantileOK(math.NaN()); ok || v != 0 {
		t.Errorf("NaN QuantileOK = %f, %v; want 0, false", v, ok)
	}
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		v, ok := h.QuantileOK(q)
		if !ok || v != h.Quantile(q) {
			t.Errorf("QuantileOK(%.1f) = %f, %v; want %f, true", q, v, ok, h.Quantile(q))
		}
	}
}

// randomHist builds a histogram of n observations drawn from rng with a
// heavy-tailed spread across many octaves.
func randomHist(rng *rand.Rand, n int) *Histogram {
	h := &Histogram{}
	for i := 0; i < n; i++ {
		h.Observe(rng.Uint64() >> uint(rng.Intn(60)))
	}
	return h
}

// equalHist compares full histogram state.
func equalHist(a, b *Histogram) bool {
	return a.counts == b.counts && a.count == b.count && a.sum == b.sum &&
		a.min == b.min && a.max == b.max
}

// TestEncodeDecodeRoundTrip checks that decode inverts encode exactly.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	hists := []*Histogram{
		{}, // empty
		randomHist(rng, 1),
		randomHist(rng, 1000),
	}
	var one Histogram
	one.Observe(0)
	hists = append(hists, &one)
	for i, h := range hists {
		dec, err := DecodeHistogram(h.Encode())
		if err != nil {
			t.Fatalf("hist %d: decode: %v", i, err)
		}
		if !equalHist(h, dec) {
			t.Fatalf("hist %d: round trip mismatch", i)
		}
	}
}

// TestDecodeCorrupt feeds broken encodings to the decoder: every one
// must return an error wrapping ErrCorruptHistogram — never panic,
// never succeed.
func TestDecodeCorrupt(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 5, 100, 10_000, 1 << 30} {
		h.Observe(v)
	}
	valid := h.Encode()

	cases := map[string][]byte{
		"empty":           {},
		"bad version":     append([]byte{99}, valid[1:]...),
		"truncated":       valid[:len(valid)-1],
		"header only":     valid[:3],
		"trailing bytes":  append(append([]byte{}, valid...), 0x01),
		"all 0xff":        bytes.Repeat([]byte{0xff}, 40),
		"version only":    {histVersion},
		"count mismatch":  nil, // built below
		"zero bucket":     {histVersion, 1, 1, 1, 1, 1, 0, 0},
		"index overflow":  {histVersion, 1, 1, 1, 1, 1, 0xff, 0xff, 0x7f, 1},
		"min exceeds max": {histVersion, 1, 9, 9, 1, 1, 9, 1},
	}
	// count says 2, buckets sum to 1.
	bad := []byte{histVersion}
	bad = append(bad, 2, 5, 5, 5, 1, 5, 1)
	cases["count mismatch"] = bad

	for name, data := range cases {
		got, err := DecodeHistogram(data)
		if err == nil {
			t.Errorf("%s: decode succeeded (count=%d), want error", name, got.Count())
			continue
		}
		if !errors.Is(err, ErrCorruptHistogram) {
			t.Errorf("%s: error %v does not wrap ErrCorruptHistogram", name, err)
		}
	}
}

// FuzzHistogramDecode asserts the decoder's safety contract on
// arbitrary bytes: it returns a value or an ErrCorruptHistogram error,
// never panics, and anything it accepts re-encodes canonically.
func FuzzHistogramDecode(f *testing.F) {
	var h Histogram
	for _, v := range []uint64{0, 1, 7, 8, 1000, 123456, 1 << 40} {
		h.Observe(v)
	}
	valid := h.Encode()
	f.Add(valid)
	f.Add((&Histogram{}).Encode())
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte{histVersion})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeHistogram(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptHistogram) {
				t.Fatalf("error %v does not wrap ErrCorruptHistogram", err)
			}
			return
		}
		// Accepted input must re-encode to a decodable, equal histogram.
		again, err := DecodeHistogram(dec.Encode())
		if err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if !equalHist(dec, again) {
			t.Fatal("accepted input did not round-trip canonically")
		}
	})
}

package txtrace

import (
	"math"
	"math/bits"
)

// The histogram's buckets are log-linear: values below 2^histSubBits land in
// exact unit buckets; above that, each power-of-two octave is split into
// 2^histSubBits sub-buckets, bounding the relative bucket width at
// 1/2^histSubBits (12.5%). The layout is fixed, independent of the data.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
	histNumBkts = (64-histSubBits)*histSub + histSub // indexes for all uint64 values
)

// histogram is a fixed log-bucket histogram of non-negative integer
// observations (the span tracer feeds it transaction latencies in
// cycles). The zero value is ready to use.
type histogram struct {
	counts [histNumBkts]uint64
	count  uint64
	min    uint64 // valid when count > 0
	max    uint64
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := uint(bits.Len64(v)) - 1 // 2^e <= v < 2^(e+1), e >= histSubBits
	m := (v >> (e - histSubBits)) & (histSub - 1)
	return int(e-histSubBits+1)<<histSubBits + int(m)
}

// bucketLower returns the smallest value mapping to bucket i.
func bucketLower(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	e := uint(i>>histSubBits) + histSubBits - 1
	m := uint64(i & (histSub - 1))
	return (histSub + m) << (e - histSubBits)
}

// bucketUpper returns the exclusive upper bound of bucket i.
func bucketUpper(i int) uint64 {
	if i+1 < histNumBkts {
		return bucketLower(i + 1)
	}
	return math.MaxUint64
}

// Observe records one value.
func (h *histogram) Observe(v uint64) {
	h.counts[bucketIndex(v)]++
	h.count++
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Quantile estimates the q-quantile (0 <= q <= 1) as the midpoint of
// the bucket holding the q-th observation, clamped to the observed
// min/max. An empty histogram and a NaN q both return 0: a NaN q would
// slip through the rank clamps below, since every comparison with NaN
// is false and converting NaN*count to a rank is unspecified.
func (h *histogram) Quantile(q float64) float64 {
	if h.count == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			lo, hi := bucketLower(i), bucketUpper(i)
			mid := lo + (hi-lo)/2
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return float64(mid)
		}
	}
	return float64(h.max)
}

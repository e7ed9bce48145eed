// Package telemetry is the flight recorder of the simulator: bounded
// in-run timelines sampled on simulated time, per-transaction latency
// histograms with a compact encoding, their JSON and CSV file forms,
// and the run manifest emitted next to campaign checkpoints.
//
// The package is under the odblint determinism rule: nothing here may
// read the wall clock. Sample timestamps are simulated seconds supplied
// by the system layer, and manifest wall-time fields are stamped by
// callers (cmd/ binaries, or the campaign runner through its injected
// clock). A Recorder is written by the simulation and read by the run's
// caller once the run is over; a Histogram is not safe for concurrent
// use on its own.
package telemetry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Histogram buckets are log-linear: values below 2^histSubBits land in
// exact unit buckets; above that, each power-of-two octave is split into
// 2^histSubBits sub-buckets, bounding the relative bucket width at
// 1/2^histSubBits (12.5%). The layout is fixed — independent of the
// data — so a histogram's encoding needs no bucket table.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
	histNumBkts = (64-histSubBits)*histSub + histSub // indexes for all uint64 values
	histVersion = 1
)

// ErrCorruptHistogram reports a serialized histogram that cannot be
// decoded. Match it with errors.Is.
var ErrCorruptHistogram = errors.New("telemetry: corrupt histogram encoding")

// Histogram is a fixed log-bucket histogram of non-negative integer
// observations (the recorder feeds it transaction latencies in
// microseconds). The zero value is ready to use.
type Histogram struct {
	counts [histNumBkts]uint64
	count  uint64
	sum    uint64
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
func (h *Histogram) Observe(v uint64) {
	h.counts[bucketIndex(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) as the midpoint of
// the bucket holding the q-th observation, clamped to the observed
// min/max. Empty histograms and NaN quantiles return 0; callers that
// need to distinguish "no data" from a true zero use QuantileOK.
func (h *Histogram) Quantile(q float64) float64 {
	v, _ := h.QuantileOK(q)
	return v
}

// QuantileOK is Quantile with an explicit validity report: ok is false
// — and the value 0 — when the histogram is empty or q is NaN, so
// formatting call sites can print a placeholder instead of garbage.
// (A NaN q slips through plain min/max clamps: every comparison with
// NaN is false, and converting NaN*count to a rank is unspecified.)
func (h *Histogram) QuantileOK(q float64) (float64, bool) {
	if h.count == 0 || math.IsNaN(q) {
		return 0, false
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
			return float64(mid), true
		}
	}
	return float64(h.max), true
}

// Encode serializes the histogram compactly: a version byte, the count,
// sum, min and max, then (bucket-index delta, count) varint pairs for
// the non-zero buckets in index order. The format is self-contained:
// odbrun -json ships it in each latency digest.
func (h *Histogram) Encode() []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, histVersion)
	buf = binary.AppendUvarint(buf, h.count)
	buf = binary.AppendUvarint(buf, h.sum)
	buf = binary.AppendUvarint(buf, h.min)
	buf = binary.AppendUvarint(buf, h.max)
	nonZero := uint64(0)
	for _, c := range h.counts {
		if c != 0 {
			nonZero++
		}
	}
	buf = binary.AppendUvarint(buf, nonZero)
	prev := 0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(i-prev))
		buf = binary.AppendUvarint(buf, c)
		prev = i
	}
	return buf
}

// DecodeHistogram parses an Encode result. Corrupt input — truncated,
// version-mismatched, out-of-range buckets, or inconsistent totals —
// returns an error wrapping ErrCorruptHistogram; it never panics.
func DecodeHistogram(data []byte) (*Histogram, error) {
	fail := func(what string) (*Histogram, error) {
		return nil, fmt.Errorf("%w: %s", ErrCorruptHistogram, what)
	}
	if len(data) == 0 {
		return fail("empty input")
	}
	if data[0] != histVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCorruptHistogram, data[0], histVersion)
	}
	rest := data[1:]
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	h := &Histogram{}
	var ok bool
	if h.count, ok = next(); !ok {
		return fail("truncated count")
	}
	if h.sum, ok = next(); !ok {
		return fail("truncated sum")
	}
	if h.min, ok = next(); !ok {
		return fail("truncated min")
	}
	if h.max, ok = next(); !ok {
		return fail("truncated max")
	}
	nonZero, ok := next()
	if !ok {
		return fail("truncated bucket count")
	}
	if nonZero > histNumBkts {
		return fail("bucket count out of range")
	}
	idx := 0
	var total uint64
	for i := uint64(0); i < nonZero; i++ {
		delta, ok := next()
		if !ok {
			return fail("truncated bucket index")
		}
		c, ok := next()
		if !ok {
			return fail("truncated bucket value")
		}
		if c == 0 {
			return fail("zero bucket encoded")
		}
		if i > 0 && delta == 0 {
			return fail("duplicate bucket index")
		}
		if delta > uint64(histNumBkts) || idx+int(delta) >= histNumBkts {
			return fail("bucket index out of range")
		}
		idx += int(delta)
		h.counts[idx] = c
		sum := total + c
		if sum < total {
			return fail("bucket count overflow")
		}
		total = sum
	}
	if len(rest) != 0 {
		return fail("trailing bytes")
	}
	if total != h.count {
		return fail("bucket totals disagree with count")
	}
	if h.count > 0 {
		if h.min > h.max {
			return fail("min exceeds max")
		}
		if bucketIndex(h.min) > bucketIndex(h.max) {
			return fail("min/max bucket order")
		}
	}
	return h, nil
}

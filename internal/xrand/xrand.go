// Package xrand supplies the deterministic random-number utilities the
// simulator depends on: splittable per-component seeds, Zipf-distributed
// block selection (database buffer pools exhibit highly skewed reuse), the
// TPC-C NURand non-uniform key generator that ODB's transaction mix uses
// to pick customers and items, and exponential draws for service times.
//
// Every source of randomness in the repository flows through a *Rand
// constructed from an explicit seed, so all simulations are reproducible.
package xrand

import (
	"math"
	"math/bits"
	"math/rand"
)

// Rand wraps math/rand with the simulator's distributions. The hot
// uniform draws (Uint64, Int63, Float64, Intn) are shadowed with a
// splitmix64 counter generator: one add and three multiply-xor rounds per
// draw, with no interface indirection. The embedded math/rand generator
// still serves the cold ziggurat distributions (ExpFloat64, NormFloat64)
// and Perm as an independent stream derived from the same seed.
type Rand struct {
	*rand.Rand
	state uint64 // splitmix64 counter for the fast paths
}

// gamma is splitmix64's Weyl-sequence increment (2^64 over the golden
// ratio).
const gamma = 0x9e3779b97f4a7c15

// splitmix64 is the output stage of the splitmix64 generator.
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a deterministic generator for the given seed.
func New(seed int64) *Rand {
	return &Rand{
		Rand:  rand.New(rand.NewSource(seed)),
		state: splitmix64(uint64(seed) + gamma),
	}
}

// Uint64 returns a uniform 64-bit draw (fast path).
func (r *Rand) Uint64() uint64 {
	r.state += gamma
	return splitmix64(r.state)
}

// Fill stores the next len(dst) Uint64 draws in dst, in order. The
// counter stays in a register for the whole loop, so consecutive rounds
// overlap instead of each loading and storing it through r.
func (r *Rand) Fill(dst []uint64) {
	state := r.state
	for i := range dst {
		state += gamma
		dst[i] = splitmix64(state)
	}
	r.state = state
}

// Int63 returns a uniform draw in [0, 2^63) (fast path).
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform draw in [0, 1) (fast path).
func (r *Rand) Float64() float64 { return Unit(r.Uint64()) }

// Unit maps a 64-bit draw to the [0, 1) uniform Float64 derives from it:
// its top 53 bits scaled by 2^-53.
func Unit(u uint64) float64 { return float64(u>>11) * (1.0 / (1 << 53)) }

// Intn returns a uniform draw in [0, n); it panics if n <= 0. The bound
// is applied with the fixed-point multiply method; its bias (< n/2^64) is
// far below anything a simulation can resolve.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// Split derives an independent child generator identified by id. Children
// of the same parent with different ids produce uncorrelated streams, and
// the derivation is stable across runs.
func (r *Rand) Split(id uint64) *Rand {
	// Mix the id through splitmix64 so that small consecutive ids land far
	// apart in seed space.
	z := splitmix64(id + gamma)
	return New(r.Int63() ^ int64(z))
}

// Exp returns an exponentially distributed draw with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	return r.ExpFloat64() * mean
}

// UniformInt returns an integer uniformly distributed in [lo, hi]
// inclusive; it panics if hi < lo.
func (r *Rand) UniformInt(lo, hi int) int {
	if hi < lo {
		panic("xrand: UniformInt with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// NURand implements the TPC-C non-uniform random function
// NURand(A, x, y) = (((random(0,A) | random(x,y)) + C) % (y-x+1)) + x,
// which concentrates accesses on a subset of keys — the access skew that
// makes small-warehouse OLTP configurations contend on hot blocks.
func (r *Rand) NURand(a, x, y, c int) int {
	return (((r.UniformInt(0, a) | r.UniformInt(x, y)) + c) % (y - x + 1)) + x
}

// Zipf draws from {0, 1, ..., n-1} with P(k) proportional to
// 1/(v+k)^s, the parameterization used in cache-behaviour studies (theta
// just below 1 models database block popularity well).
//
// The sampler is an alias table (Vose's method): construction is O(n) and
// each draw costs exactly one Uint64 from the underlying stream plus two
// array reads — no rejection loop, no Exp/Log calls. The reference
// synthesizer draws from these tables for every memory reference, so this
// is the single hottest function in a simulation.
type Zipf struct {
	r *Rand
	// thresh is each slot's acceptance probability p as the integer
	// ceil(p·2^53): a 53-bit uniform x satisfies x·2^-53 < p exactly when
	// x < thresh, so the accept test is an integer compare.
	thresh []uint64
	alias  []uint32 // fallback item per slot
	n      uint64
	single bool // n == 1: every draw is 0, no stream consumption skew
}

// acceptAll is the threshold of a slot that always keeps itself (p = 1).
const acceptAll = 1 << 53

// threshold converts an acceptance probability into its integer
// threshold ceil(p·2^53). The product is exact (a power-of-two scale), so
// the conversion loses nothing; p <= 0 never accepts.
func threshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	return uint64(math.Ceil(p * acceptAll))
}

// NewZipf builds a Zipf source over n items with skew theta in (0, ~4).
// The pmf matches math/rand's Zipf parameterization: s > 1 is required
// there, so theta <= 1 maps to s = 1.0001 with a larger v flattening the
// head to emulate sub-1 skew levels acceptably for cache modelling.
func NewZipf(r *Rand, theta float64, n uint64) *Zipf {
	if n == 0 {
		panic("xrand: Zipf over zero items")
	}
	if n > math.MaxUint32 {
		panic("xrand: Zipf table too large")
	}
	s := theta
	if s <= 1 {
		s = 1.0001
	}
	v := 1.0
	if theta < 1 {
		v = 1 + (1-theta)*float64(n)/4
	}
	z := &Zipf{r: r, n: n, single: n == 1}
	if z.single {
		return z
	}
	// Vose's alias method over w[k] = (v+k)^-s.
	w := make([]float64, n)
	total := 0.0
	for k := range w {
		w[k] = math.Pow(v+float64(k), -s)
		total += w[k]
	}
	scale := float64(n) / total
	z.thresh = make([]uint64, n)
	z.alias = make([]uint32, n)
	// Partition slots into under- and over-full; process deterministically
	// in index order so the table (and thus the stream mapping) is stable.
	small := make([]uint32, 0, n)
	large := make([]uint32, 0, n)
	for k := uint64(0); k < n; k++ {
		w[k] *= scale
		if w[k] < 1 {
			small = append(small, uint32(k))
		} else {
			large = append(large, uint32(k))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s0 := small[len(small)-1]
		small = small[:len(small)-1]
		l0 := large[len(large)-1]
		z.thresh[s0] = threshold(w[s0])
		z.alias[s0] = l0
		w[l0] -= 1 - w[s0]
		if w[l0] < 1 {
			large = large[:len(large)-1]
			small = append(small, l0)
		}
	}
	for _, k := range large {
		z.thresh[k] = acceptAll
	}
	for _, k := range small {
		// Numerical leftovers: slot keeps itself.
		z.thresh[k] = acceptAll
	}
	return z
}

// Next returns the next draw. One 64-bit draw provides both the slot index
// (via the high half of the 128-bit product u*n) and an independent
// 53-bit uniform (the top of the low half) for the accept/alias test,
// which selects between slot and alias without a branch.
func (z *Zipf) Next() uint64 {
	if z.single {
		return 0
	}
	hi, lo := bits.Mul64(z.r.Uint64(), z.n)
	k := uint64(z.alias[hi])
	if lo>>11 < z.thresh[hi] {
		k = hi
	}
	return k
}

// Fill stores the next len(dst) draws in dst: exactly what len(dst)
// calls to Next would return, consuming the same stream. A single-item
// Zipf fills zeros and consumes nothing.
func (z *Zipf) Fill(dst []uint64) {
	if z.single {
		clear(dst)
		return
	}
	state := z.r.state
	thresh, alias, n := z.thresh, z.alias, z.n
	for i := range dst {
		state += gamma
		hi, lo := bits.Mul64(splitmix64(state), n)
		k := uint64(alias[hi])
		if lo>>11 < thresh[hi] {
			k = hi
		}
		dst[i] = k
	}
	z.r.state = state
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

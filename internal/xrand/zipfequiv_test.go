package xrand

import (
	"math"
	"math/bits"
	"testing"
)

// refZipf is the float-compare alias sampler the integer-threshold Zipf
// replaced, kept verbatim as the reference for the equivalence tests.
type refZipf struct {
	r      *Rand
	prob   []float64
	alias  []uint32
	n      uint64
	single bool
}

func newRefZipf(r *Rand, theta float64, n uint64) *refZipf {
	s := theta
	if s <= 1 {
		s = 1.0001
	}
	v := 1.0
	if theta < 1 {
		v = 1 + (1-theta)*float64(n)/4
	}
	z := &refZipf{r: r, n: n, single: n == 1}
	if z.single {
		return z
	}
	w := make([]float64, n)
	total := 0.0
	for k := range w {
		w[k] = math.Pow(v+float64(k), -s)
		total += w[k]
	}
	scale := float64(n) / total
	z.prob = make([]float64, n)
	z.alias = make([]uint32, n)
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
		z.prob[s0] = w[s0]
		z.alias[s0] = l0
		w[l0] -= 1 - w[s0]
		if w[l0] < 1 {
			large = large[:len(large)-1]
			small = append(small, l0)
		}
	}
	for _, k := range large {
		z.prob[k] = 1
	}
	for _, k := range small {
		z.prob[k] = 1
	}
	return z
}

func (z *refZipf) Next() uint64 {
	if z.single {
		return 0
	}
	u := z.r.Uint64()
	hi, lo := bits.Mul64(u, z.n)
	frac := float64(lo>>11) * (1.0 / (1 << 53))
	if frac < z.prob[hi] {
		return hi
	}
	return uint64(z.alias[hi])
}

// zipfShapes are the synthesizer's seven (theta, n) shapes at the default
// scale of 64 (user code, OS code, SGA metadata, kernel data, PGA, branch
// sites, and the structural hot set at W=10, 200 and 1200), plus the
// degenerate sizes 1 and 2.
var zipfShapes = []struct {
	theta float64
	n     uint64
}{
	{1.6, 128}, {1.6, 32}, {1.7, 4096}, {1.6, 32}, {1.3, 8}, {1.05, 512},
	{1.0, 25}, {1.0, 500}, {1.0, 3000},
	{1.6, 1}, {1.0, 2}, {0.6, 2},
}

func TestZipfMatchesReferenceDrawForDraw(t *testing.T) {
	const draws = 1_000_000
	for i, sh := range zipfShapes {
		seed := int64(100 + i)
		got := NewZipf(New(seed), sh.theta, sh.n)
		want := newRefZipf(New(seed), sh.theta, sh.n)
		for d := 0; d < draws; d++ {
			if g, w := got.Next(), want.Next(); g != w {
				t.Fatalf("theta=%v n=%d draw %d: got %d, reference %d", sh.theta, sh.n, d, g, w)
			}
		}
		// Both consumed the same number of draws from their streams.
		if g, w := got.r.Uint64(), want.r.Uint64(); g != w {
			t.Fatalf("theta=%v n=%d: streams diverged after %d draws", sh.theta, sh.n, draws)
		}
	}
}

func TestZipfTableMatchesReference(t *testing.T) {
	for _, sh := range zipfShapes {
		if sh.n == 1 {
			continue
		}
		got := NewZipf(New(1), sh.theta, sh.n)
		want := newRefZipf(New(1), sh.theta, sh.n)
		for k := range want.prob {
			if got.alias[k] != want.alias[k] {
				t.Fatalf("theta=%v n=%d slot %d: alias %d, reference %d", sh.theta, sh.n, k, got.alias[k], want.alias[k])
			}
			if got.thresh[k] != threshold(want.prob[k]) {
				t.Fatalf("theta=%v n=%d slot %d: threshold %d, reference p %v", sh.theta, sh.n, k, got.thresh[k], want.prob[k])
			}
		}
	}
}

// TestZipfThresholdBoundary checks the integer accept test against the
// float one at and around the threshold, for probabilities whose p·2^53
// is an integer and ones where it is not.
func TestZipfThresholdBoundary(t *testing.T) {
	const two53 = 1 << 53
	ps := []float64{
		0, 1, 0.5, 0.25, 0.75, // p·2^53 an integer
		3.0 / two53, (1<<52 + 7) / float64(two53), // an integer near the ends
		0.1, 1.0 / 3, 0.9999999, 2.0 / 3, // not an integer
		math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		math.Nextafter(1, 0), math.SmallestNonzeroFloat64, 1e-300,
		-0.0, math.Nextafter(0, -1), // negative leftovers never accept
	}
	for _, p := range ps {
		th := threshold(p)
		integral := p*two53 == math.Floor(p*two53)
		lo := uint64(0)
		if th > 2 {
			lo = th - 2
		}
		for x := lo; x <= th+1 && x < two53; x++ {
			float := float64(x)*(1.0/two53) < p
			if got := x < th; got != float {
				t.Errorf("p=%v (integral %v) x=%d: integer test %v, float test %v", p, integral, x, got, float)
			}
		}
	}
}

func BenchmarkZipfNext(b *testing.B) {
	zs := make([]*Zipf, 0, 7)
	for i, sh := range zipfShapes[:7] {
		zs = append(zs, NewZipf(New(1).Split(uint64(i+1)), sh.theta, sh.n))
	}
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += zs[i%len(zs)].Next()
	}
	benchSink = sum
}

var benchSink uint64

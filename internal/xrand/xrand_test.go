package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(1)
	c1 := New(1).Split(1)
	c2 := New(1).Split(2)
	_ = r
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Intn(1000) == c2.Intn(1000) {
			same++
		}
	}
	if same > 20 {
		t.Fatalf("children look correlated: %d/100 collisions", same)
	}
}

func TestSplitStable(t *testing.T) {
	x := New(5).Split(3).Int63()
	y := New(5).Split(3).Int63()
	if x != y {
		t.Fatal("Split not stable across runs")
	}
}

func TestUniformInt(t *testing.T) {
	r := New(2)
	for i := 0; i < 1000; i++ {
		v := r.UniformInt(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("UniformInt out of range: %d", v)
		}
	}
	if got := r.UniformInt(5, 5); got != 5 {
		t.Fatalf("degenerate range: %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for hi < lo")
		}
	}()
	r.UniformInt(7, 3)
}

func TestNURandRangeQuick(t *testing.T) {
	r := New(3)
	f := func(seed int64) bool {
		rr := New(seed)
		v := rr.NURand(255, 1, 3000, 123)
		return v >= 1 && v <= 3000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestNURandSkew(t *testing.T) {
	// NURand concentrates mass: the most popular 10% of the key space
	// should receive clearly more than 10% of draws.
	r := New(4)
	n := 3000
	counts := make([]int, n+1)
	for i := 0; i < 200000; i++ {
		counts[r.NURand(1023, 1, n, 7)]++
	}
	type kv struct{ k, c int }
	top := 0
	all := 0
	sorted := make([]int, 0, n)
	for k := 1; k <= n; k++ {
		sorted = append(sorted, counts[k])
		all += counts[k]
	}
	// Not sorting by popularity rank; instead count keys above the uniform
	// expectation times 2 — a skewed distribution has many such keys.
	uniform := all / n
	for _, c := range sorted {
		if c > 2*uniform {
			top += c
		}
	}
	if float64(top)/float64(all) < 0.2 {
		t.Fatalf("NURand looks uniform: hot share %.3f", float64(top)/float64(all))
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := New(5)
	z := NewZipf(r, 0.9, 1000)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Item 0 must be the modal item by a wide margin over the median item.
	if counts[0] < 5*counts[500]+1 {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[500]=%d", counts[0], counts[500])
	}
}

func TestZipfHighTheta(t *testing.T) {
	r := New(6)
	z := NewZipf(r, 1.5, 100)
	head := 0
	for i := 0; i < 10000; i++ {
		if z.Next() < 10 {
			head++
		}
	}
	if head < 7000 {
		t.Fatalf("theta=1.5 head mass too small: %d/10000", head)
	}
}

func TestZipfZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for n=0")
		}
	}()
	NewZipf(New(1), 1, 0)
}

func TestExpMean(t *testing.T) {
	r := New(7)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(5)
	}
	if mean := sum / n; math.Abs(mean-5) > 0.1 {
		t.Fatalf("Exp mean = %v, want ~5", mean)
	}
}

func TestBernoulli(t *testing.T) {
	r := New(8)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", p)
	}
}

package main

import (
	"math"
	"testing"
)

// TestQuartilesMatchPython pins the interpolation to Python's
// statistics.quantiles(xs, n=4) ("exclusive" method).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func sideOf(vals ...float64) side {
	s := side{bySeed: map[int64]float64{}}
	for i, v := range vals {
		s.values = append(s.values, v)
		s.bySeed[int64(i)] = v
	}
	return s
}

func TestVerdict(t *testing.T) {
	lower := endToEndMetric{Name: "host_ns_per_txn", Better: "lower", Bound: 0.10}
	base := sideOf(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	cases := []struct {
		name string
		head side
		want string
	}{
		{"faster on every pair", sideOf(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), "improved"},
		{"same", sideOf(100, 101, 99, 100, 102, 98, 100, 101, 99, 100), "no worse"},
		{"slightly slower", sideOf(104, 105, 103, 104, 106, 102, 104, 105, 103, 104), "no worse"},
		{"much slower", sideOf(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "worse"},
	}
	for _, c := range cases {
		if got, _, _ := verdict(lower, base, c.head); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	noisy := sideOf(80, 120, 90, 110, 70, 130, 100, 100, 85, 115)
	if got, _, _ := verdict(lower, noisy, sideOf(95, 105, 100, 100, 98, 102, 97, 103, 99, 101)); got != "unresolved" {
		t.Errorf("noisy base: verdict %q, want unresolved", got)
	}
	higher := endToEndMetric{Name: "hit_ratio", Better: "higher", Bound: 0.10}
	if got, _, _ := verdict(higher, base, sideOf(80, 81, 79, 80, 82, 78, 80, 81, 79, 80)); got != "worse" {
		t.Errorf("higher-is-better, 20%% lower: verdict %q, want worse", got)
	}
}

package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestMeanSimple(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Known sample variance of this classic data set is 32/7.
	if got, want := Variance(xs), 32.0/7.0; !almostEqual(got, want, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
}

func TestVarianceSingleton(t *testing.T) {
	if got := Variance([]float64{42}); got != 0 {
		t.Fatalf("Variance of singleton = %v, want 0", got)
	}
}

func TestVarianceNonNegativeQuick(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological inputs
			}
		}
		return Variance(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanBetweenMinMaxQuick(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		m := Mean(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCI95(t *testing.T) {
	xs := []float64{10, 10, 10, 10}
	if got := CI95(xs); got != 0 {
		t.Fatalf("CI95 of constant sample = %v, want 0", got)
	}
	if got := CI95([]float64{1}); got != 0 {
		t.Fatalf("CI95 of singleton = %v, want 0", got)
	}
	xs = []float64{1, 2, 3, 4, 5, 6}
	want := 1.96 * StdDev(xs) / math.Sqrt(6)
	if got := CI95(xs); !almostEqual(got, want, 1e-12) {
		t.Fatalf("CI95 = %v, want %v", got, want)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Add(100, 2.0)
	s.Add(10, 1.0)
	s.Sort()
	if s.Len() != 2 || s.Points[0].X != 10 {
		t.Fatalf("Sort failed: %+v", s.Points)
	}
	if xs := s.Xs(); xs[0] != 10 || xs[1] != 100 {
		t.Fatalf("Xs = %v", xs)
	}
	if ys := s.Ys(); ys[0] != 1 || ys[1] != 2 {
		t.Fatalf("Ys = %v", ys)
	}
	if y, ok := s.At(100); !ok || y != 2 {
		t.Fatalf("At(100) = %v, %v", y, ok)
	}
	if _, ok := s.At(55); ok {
		t.Fatal("At(55) should be absent")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "Table X", Header: []string{"Warehouses", "1P", "2P"}}
	tab.AddRow("10", "8", "10")
	tab.AddRow("800", "13", "36")
	out := tab.String()
	if !strings.Contains(out, "Table X") || !strings.Contains(out, "Warehouses") {
		t.Fatalf("missing title/header:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	// Columns must be aligned: each data line at least as wide as the header start of col 2.
	if len(lines[2]) < len("Warehouses") {
		t.Fatalf("row not padded: %q", lines[2])
	}
}

func TestF(t *testing.T) {
	if got := F(3.14159, 2); got != "3.14" {
		t.Fatalf("F = %q", got)
	}
}

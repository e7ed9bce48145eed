package core

import (
	"math"
	"testing"
	"testing/quick"

	"odbscale/internal/stats"
)

func TestIronLawTPS(t *testing.T) {
	l := IronLaw{Processors: 4, FrequencyHz: 1.6e9, IPX: 1.2e6, CPI: 4, Utilization: 1}
	// 4 * 1.6e9 / (1.2e6 * 4) = 1333.3
	want := 4 * 1.6e9 / (1.2e6 * 4)
	if math.Abs(l.TPS()-want) > 1e-9 {
		t.Fatalf("TPS = %v, want %v", l.TPS(), want)
	}
	if l.String() == "" {
		t.Fatal("empty String")
	}
}

func TestIronLawUtilization(t *testing.T) {
	base := IronLaw{Processors: 1, FrequencyHz: 1e9, IPX: 1e6, CPI: 2, Utilization: 1}
	half := base
	half.Utilization = 0.5
	if math.Abs(half.TPS()-base.TPS()/2) > 1e-9 {
		t.Fatal("utilization not applied")
	}
	zero := base
	zero.Utilization = 0 // treated as ideal
	if zero.TPS() != base.TPS() {
		t.Fatal("zero utilization should default to 1")
	}
}

func TestIronLawDegenerate(t *testing.T) {
	if (IronLaw{Processors: 1, FrequencyHz: 1e9}).TPS() != 0 {
		t.Fatal("degenerate law should give 0")
	}
	if err := (IronLaw{}).Verify(100, 0.1); err == nil {
		t.Fatal("Verify of incomplete law should error")
	}
}

func TestVerify(t *testing.T) {
	l := IronLaw{Processors: 2, FrequencyHz: 1e9, IPX: 1e6, CPI: 2, Utilization: 1}
	tps := l.TPS()
	if err := l.Verify(tps*1.01, 0.05); err != nil {
		t.Fatalf("within tolerance rejected: %v", err)
	}
	if err := l.Verify(tps*1.5, 0.05); err == nil {
		t.Fatal("50%% deviation accepted")
	}
}

// Property: the iron law is exactly inverse-proportional in IPX and CPI
// and proportional in P and F.
func TestIronLawProportionalityQuick(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		k := float64(2 + seed%5)
		l := IronLaw{Processors: 2, FrequencyHz: 1e9, IPX: 1e6, CPI: 3, Utilization: 1}
		double := l
		double.Processors *= 2
		if math.Abs(double.TPS()-2*l.TPS()) > 1e-6 {
			return false
		}
		slower := l
		slower.CPI *= k
		return math.Abs(slower.TPS()*k-l.TPS()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedup(t *testing.T) {
	a := IronLaw{Processors: 4, FrequencyHz: 1e9, IPX: 1e6, CPI: 4, Utilization: 1}
	b := IronLaw{Processors: 1, FrequencyHz: 1e9, IPX: 1e6, CPI: 3, Utilization: 1}
	// 4P at CPI 4 vs 1P at CPI 3: speedup = 4 * 3/4 = 3.
	if got := Speedup(a, b); math.Abs(got-3) > 1e-9 {
		t.Fatalf("Speedup = %v, want 3", got)
	}
	if Speedup(a, IronLaw{}) != 0 {
		t.Fatal("speedup over zero baseline should be 0")
	}
}

func synthSeries(name string, pivot, s1, s2, i1 float64) stats.Series {
	ser := stats.Series{Name: name}
	i2 := i1 + s1*pivot - s2*pivot
	for _, w := range []float64{10, 25, 50, 100, 150, 200, 300, 400, 500, 800} {
		if w <= pivot {
			ser.Add(w, i1+s1*w)
		} else {
			ser.Add(w, i2+s2*w)
		}
	}
	return ser
}

func TestCharacterize(t *testing.T) {
	cpi := synthSeries("cpi", 130, 0.02, 0.002, 2)
	mpi := synthSeries("mpi", 145, 0.00006, 0.000004, 0.004)
	c, err := Characterize(4, cpi, mpi)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.CPI.Pivot()-130) > 5 {
		t.Fatalf("CPI pivot = %v, want ~130", c.CPI.Pivot())
	}
	if math.Abs(c.MPI.Pivot()-145) > 10 {
		t.Fatalf("MPI pivot = %v, want ~145", c.MPI.Pivot())
	}
	if c.RepresentativePivot() != c.CPI.Pivot() {
		t.Fatal("representative pivot must be the CPI pivot")
	}
	if min := c.MinimalConfiguration(0.25); min < 160 || min > 170 {
		t.Fatalf("MinimalConfiguration = %d, want ~163", min)
	}
}

func TestCharacterizeErrors(t *testing.T) {
	short := stats.Series{Name: "x"}
	short.Add(1, 1)
	if _, err := Characterize(1, short, short); err == nil {
		t.Fatal("want error for too few points")
	}
}

func TestExtrapolation(t *testing.T) {
	cpi := synthSeries("cpi", 130, 0.02, 0.002, 2)
	c, err := Characterize(4, cpi, synthSeries("mpi", 130, 0.0001, 0.00001, 0.004))
	if err != nil {
		t.Fatal(err)
	}
	// Extrapolating to 2000 warehouses follows the scaled line exactly.
	want := c.CPI.Fit.Scaled.Eval(2000)
	if got := c.CPI.Extrapolate(2000); got != want {
		t.Fatalf("Extrapolate = %v, want %v", got, want)
	}
	// Against its own (noiseless) observations, the error is ~zero.
	if e := c.CPI.ExtrapolationError(cpi); e > 1e-9 {
		t.Fatalf("extrapolation error = %v on noiseless data", e)
	}
}

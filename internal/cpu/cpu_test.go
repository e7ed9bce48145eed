package cpu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBranchPredictorLearnsBias(t *testing.T) {
	bp := NewBranchPredictor(12, 4)
	// A strongly biased branch should be predicted almost perfectly after
	// warm-up.
	for i := 0; i < 1000; i++ {
		bp.Record(0x400100, true)
	}
	miss := 0
	for i := 0; i < 1000; i++ {
		if !bp.Record(0x400100, true) {
			miss++
		}
	}
	if r := float64(miss) / 1000; r > 0.01 {
		t.Fatalf("biased branch mispredict rate = %v", r)
	}
}

func TestBranchPredictorLearnsLoop(t *testing.T) {
	bp := NewBranchPredictor(14, 4)
	// A short repeating pattern is capturable by global history.
	pattern := []bool{true, true, true, false}
	for i := 0; i < 4000; i++ {
		bp.Record(0x8000, pattern[i%len(pattern)])
	}
	miss := 0
	for i := 0; i < 4000; i++ {
		if !bp.Record(0x8000, pattern[i%len(pattern)]) {
			miss++
		}
	}
	if r := float64(miss) / 4000; r > 0.05 {
		t.Fatalf("loop pattern mispredict rate = %v", r)
	}
}

func TestBranchPredictorRandomIsHard(t *testing.T) {
	bp := NewBranchPredictor(12, 4)
	rng := rand.New(rand.NewSource(3))
	miss := 0
	for i := 0; i < 20000; i++ {
		if !bp.Record(uint64(rng.Intn(64))<<2, rng.Intn(2) == 0) {
			miss++
		}
	}
	if r := float64(miss) / 20000; r < 0.3 {
		t.Fatalf("random branches too predictable: %v", r)
	}
}

func TestBranchPredictorPanics(t *testing.T) {
	for _, bits := range []uint{0, 25} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("want panic for bits=%d", bits)
				}
			}()
			NewBranchPredictor(bits, 0)
		}()
	}
}

func TestTLBHitsAfterFill(t *testing.T) {
	tlb := NewTLB(64, 4, 4096)
	if tlb.Access(0x1000) {
		t.Fatal("cold TLB access hit")
	}
	if !tlb.Access(0x1fff) { // same page
		t.Fatal("same-page access missed")
	}
	if tlb.Access(0x2000) { // next page
		t.Fatal("new page hit")
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := NewTLB(64, 4, 4096)
	tlb.Access(0x5000)
	tlb.Flush()
	if tlb.Access(0x5000) {
		t.Fatal("hit after flush")
	}
}

// missRate touches pages [0, pages) round-robin for rounds rounds on a
// fresh 16-entry TLB and returns its misses per access.
func missRate(rounds, pages int) float64 {
	tlb := NewTLB(16, 4, 4096)
	miss := 0
	for round := 0; round < rounds; round++ {
		for p := 0; p < pages; p++ {
			if !tlb.Access(uint64(p) * 4096) {
				miss++
			}
		}
	}
	return float64(miss) / float64(rounds*pages)
}

func TestTLBCapacity(t *testing.T) {
	// Touch 64 pages round-robin: working set 4x capacity must thrash.
	if r := missRate(10, 64); r < 0.9 {
		t.Fatalf("thrash miss rate = %v, want ~1", r)
	}
	// And a tiny working set must mostly hit.
	if r := missRate(100, 8); r > 0.05 {
		t.Fatalf("resident miss rate = %v", r)
	}
}

func TestTLBGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewTLB(48, 4, 4096) // 12 sets, not a power of two
}

func TestTable3Costs(t *testing.T) {
	c := Table3Costs()
	if c.InstBase != 0.5 || c.BranchMispred != 20 || c.TLBMiss != 20 ||
		c.TCMiss != 20 || c.L2Miss != 16 || c.L3Miss != 300 || c.BusTime1P != 102 {
		t.Fatalf("Table 3 costs = %+v", c)
	}
}

func TestAssembleFormulas(t *testing.T) {
	c := Table3Costs()
	r := EventRates{
		BranchMispredPI: 0.002,
		TLBMissPI:       0.001,
		TCMissPI:        0.003,
		L2MissPI:        0.010,
		L3MissPI:        0.006,
		BusTime:         150,
		OtherPI:         0.1,
	}
	b := Assemble(c, r)
	if b.Inst != 0.5 {
		t.Fatalf("Inst = %v", b.Inst)
	}
	if math.Abs(b.Branch-0.04) > 1e-12 {
		t.Fatalf("Branch = %v", b.Branch)
	}
	if math.Abs(b.L2-(0.010-0.006)*16) > 1e-12 {
		t.Fatalf("L2 = %v", b.L2)
	}
	// L3 = MPI * (300 + busTime - busTime1P) = 0.006 * (300 + 48)
	if math.Abs(b.L3-0.006*348) > 1e-12 {
		t.Fatalf("L3 = %v", b.L3)
	}
	if math.Abs(b.Total()-(0.5+0.04+0.02+0.06+0.064+2.088+0.1)) > 1e-9 {
		t.Fatalf("Total = %v", b.Total())
	}
}

func TestAssembleClamps(t *testing.T) {
	c := Table3Costs()
	// L3 misses exceeding L2 misses (possible with sampling noise) must
	// not produce a negative L2 component, and a bus time below the 1P
	// baseline must not discount the L3 cost.
	b := Assemble(c, EventRates{L2MissPI: 0.001, L3MissPI: 0.002, BusTime: 50})
	if b.L2 != 0 {
		t.Fatalf("L2 = %v, want 0", b.L2)
	}
	if math.Abs(b.L3-0.002*300) > 1e-12 {
		t.Fatalf("L3 = %v", b.L3)
	}
}

// Property: total equals the sum of components, and shares sum to 1.
func TestBreakdownTotalQuick(t *testing.T) {
	f := func(a, b, c, d, e, g, h float64) bool {
		abs := func(x float64) float64 {
			x = math.Abs(x)
			if math.IsNaN(x) || math.IsInf(x, 0) || x > 1e6 {
				return 1
			}
			return x
		}
		bd := Breakdown{Inst: abs(a), Branch: abs(b), TLB: abs(c), TC: abs(d), L2: abs(e), L3: abs(g), Other: abs(h)}
		sum := 0.0
		for _, comp := range bd.Components() {
			sum += comp.Value
		}
		if math.Abs(sum-bd.Total()) > 1e-9 {
			return false
		}
		shareSum := 0.0
		for _, s := range bd.Share() {
			shareSum += s
		}
		return bd.Total() == 0 || math.Abs(shareSum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownString(t *testing.T) {
	b := Assemble(Table3Costs(), EventRates{L3MissPI: 0.005, BusTime: 102})
	if b.String() == "" {
		t.Fatal("empty String")
	}
}

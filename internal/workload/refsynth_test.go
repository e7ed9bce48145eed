package workload

import (
	"testing"

	"odbscale/internal/bus"
	"odbscale/internal/cache"
	"odbscale/internal/odb"
	"odbscale/internal/xrand"
)

const testScale = 64

func testSynth(cpus int, seed int64) *Synth {
	g := ScaledGeometry(cache.XeonGeometry(), testScale)
	d := cache.NewDomain(g, cpus, true)
	b := bus.New(bus.DefaultConfig(), float64(testScale))
	return New(DefaultConfig(testScale), d, b, xrand.New(seed))
}

func blocks(ids ...uint64) []odb.BlockID {
	out := make([]odb.BlockID, len(ids))
	for i, id := range ids {
		out[i] = odb.BlockID(id)
	}
	return out
}

func TestScaledGeometry(t *testing.T) {
	g := ScaledGeometry(cache.XeonGeometry(), 64)
	if g.L3Size != (1<<20)/64 {
		t.Fatalf("scaled L3 = %d", g.L3Size)
	}
	if g.L2Size != (256<<10)/64 {
		t.Fatalf("scaled L2 = %d", g.L2Size)
	}
	// Must construct without panicking, including the tiny TC.
	cache.NewDomain(g, 4, true)

	it := ScaledGeometry(cache.Itanium2Geometry(), 64)
	if it.L3Size != 3<<20>>6 {
		t.Fatalf("scaled Itanium L3 = %d", it.L3Size)
	}
	cache.NewDomain(it, 4, true)
}

func TestEventCountsScale(t *testing.T) {
	s := testSynth(1, 1)
	ev := s.Run(ChunkSpec{Instr: 1_000_000, Blocks: blocks(1, 2, 3)})
	// Expected scaled counts: data = 1e6*0.3/64 ~ 4687, fetch ~977,
	// branches ~3125.
	approx := func(got uint64, want float64, name string) {
		if float64(got) < want*0.8 || float64(got) > want*1.2 {
			t.Fatalf("%s = %d, want ~%.0f", name, got, want)
		}
	}
	approx(ev.DataRefs, 1e6*0.045/testScale, "DataRefs")
	approx(ev.FetchRefs, 1e6/56.0/testScale, "FetchRefs")
	approx(ev.Branches, 1e6*0.20/testScale, "Branches")
}

func TestMispredictRateRealistic(t *testing.T) {
	s := testSynth(1, 2)
	var br, mp uint64
	for i := 0; i < 150; i++ {
		ev := s.Run(ChunkSpec{Instr: 200_000, Blocks: blocks(uint64(i))})
		if i < 50 {
			continue // predictor warm-up
		}
		br += ev.Branches
		mp += ev.Mispred
	}
	rate := float64(mp) / float64(br)
	if rate < 0.01 || rate > 0.15 {
		t.Fatalf("branch mispredict rate = %v, want a few percent", rate)
	}
}

func TestMPIGrowsWithHotSet(t *testing.T) {
	// The core mechanism of the paper's Figure 13: the structural hot set
	// grows with the warehouse count; once it exceeds the L3 capacity the
	// miss ratio climbs, then saturates.
	missRate := func(hotSetBytes int, seed int64) float64 {
		g := ScaledGeometry(cache.XeonGeometry(), testScale)
		d := cache.NewDomain(g, 1, true)
		b := bus.New(bus.DefaultConfig(), float64(testScale))
		cfg := DefaultConfig(testScale)
		cfg.HotSetBytes = hotSetBytes
		s := New(cfg, d, b, xrand.New(seed))
		rng := xrand.New(seed + 100)
		var miss, refs uint64
		for i := 0; i < 400; i++ {
			bl := make([]odb.BlockID, 12)
			for j := range bl {
				bl[j] = odb.BlockID(rng.Intn(100000))
			}
			ev := s.Run(ChunkSpec{Instr: 100_000, Blocks: bl})
			if i < 100 {
				continue // warm up
			}
			miss += ev.L3Miss
			refs += ev.DataRefs + ev.FetchRefs
		}
		return float64(miss) / float64(refs)
	}
	small := missRate(200<<10, 3) // 10-warehouse-scale hot set: resident
	large := missRate(16<<20, 3)  // 800-warehouse-scale: far exceeds L3
	if large <= small*1.5 {
		t.Fatalf("L3 miss ratio did not grow with hot set: %v -> %v", small, large)
	}
}

func TestOSChunksMissLessThanUserAtScale(t *testing.T) {
	// Kernel footprint is small and hot: once warm, OS-mode chunks should
	// have a lower miss ratio than user chunks over a huge block universe.
	s := testSynth(1, 4)
	rng := xrand.New(5)
	warm := func(os bool, n int) float64 {
		var miss, refs uint64
		for i := 0; i < n; i++ {
			bl := make([]odb.BlockID, 10)
			for j := range bl {
				bl[j] = odb.BlockID(rng.Intn(100_000))
			}
			ev := s.Run(ChunkSpec{Instr: 50_000, OS: os, Blocks: bl})
			if i > n/4 { // skip cold start
				miss += ev.L3Miss
				refs += ev.DataRefs + ev.FetchRefs
			}
		}
		return float64(miss) / float64(refs)
	}
	user := warm(false, 300)
	os := warm(true, 300)
	if os >= user {
		t.Fatalf("OS miss ratio %v >= user %v", os, user)
	}
}

func TestCoherenceTrafficExists(t *testing.T) {
	// Two CPUs touching the same blocks' headers must produce some
	// coherence misses — but far fewer than capacity misses (the paper's
	// "unexpected" finding).
	s := testSynth(2, 6)
	rng := xrand.New(7)
	var coher, l3 uint64
	for i := 0; i < 600; i++ {
		bl := make([]odb.BlockID, 8)
		for j := range bl {
			bl[j] = odb.BlockID(rng.Intn(50_000))
		}
		ev := s.Run(ChunkSpec{CPU: i % 2, ProcID: i % 4, Instr: 50_000, Blocks: bl})
		coher += ev.CoherMiss
		l3 += ev.L3Miss
	}
	if coher == 0 {
		t.Fatal("no coherence misses at all")
	}
	if float64(coher)/float64(l3) > 0.15 {
		t.Fatalf("coherence misses %.1f%% of L3 misses, want small", 100*float64(coher)/float64(l3))
	}
}

func TestTLBFlushIncreasesMisses(t *testing.T) {
	s := testSynth(1, 8)
	spec := ChunkSpec{Instr: 100_000, Blocks: blocks(1, 2, 3, 4)}
	s.Run(spec) // warm
	warmEv := s.Run(spec)
	s.FlushTLB(0)
	coldEv := s.Run(spec)
	if coldEv.TLBMiss <= warmEv.TLBMiss {
		t.Fatalf("flush did not raise TLB misses: %d <= %d", coldEv.TLBMiss, warmEv.TLBMiss)
	}
}

func TestBusSeesL3Misses(t *testing.T) {
	g := ScaledGeometry(cache.XeonGeometry(), testScale)
	d := cache.NewDomain(g, 1, true)
	b := bus.New(bus.DefaultConfig(), float64(testScale))
	s := New(DefaultConfig(testScale), d, b, xrand.New(9))
	b.ResetStats(0)
	rng := xrand.New(10)
	var l3 uint64
	for i := 0; i < 50; i++ {
		bl := make([]odb.BlockID, 10)
		for j := range bl {
			bl[j] = odb.BlockID(rng.Intn(100_000))
		}
		l3 += s.Run(ChunkSpec{Instr: 100_000, Blocks: bl}).L3Miss
	}
	st := b.StatsAt(1)
	if st.Transactions != l3 {
		t.Fatalf("bus transactions %d != L3 misses %d", st.Transactions, l3)
	}
	if l3 == 0 {
		t.Fatal("no L3 misses generated")
	}
}

func TestPGAIsolationBetweenProcesses(t *testing.T) {
	// Different processes must use disjoint PGA regions: alternating
	// processes should evict each other and miss more than one process
	// running alone.
	missOf := func(procs int, seed int64) uint64 {
		s := testSynth(1, seed)
		var miss uint64
		for i := 0; i < 200; i++ {
			ev := s.Run(ChunkSpec{ProcID: i % procs, Instr: 100_000})
			if i >= 50 {
				miss += ev.L3Miss
			}
		}
		return miss
	}
	alone := missOf(1, 11)
	many := missOf(16, 11)
	if many <= alone {
		t.Fatalf("process interleaving did not disturb caches: %d <= %d", many, alone)
	}
}

func TestZeroScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	g := ScaledGeometry(cache.XeonGeometry(), 64)
	d := cache.NewDomain(g, 1, true)
	New(Config{}, d, bus.New(bus.DefaultConfig(), 1), xrand.New(1))
}

func TestAccessorCoverage(t *testing.T) {
	s := testSynth(2, 12)
	if s.cfg.Scale != testScale {
		t.Fatalf("Scale = %d", s.cfg.Scale)
	}
	if len(s.tlbs) != 2 || len(s.bps) != 2 {
		t.Fatal("per-CPU model counts wrong")
	}
}

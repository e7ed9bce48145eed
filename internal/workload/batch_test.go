package workload

import (
	"fmt"
	"testing"

	"odbscale/internal/bus"
	"odbscale/internal/cache"
	"odbscale/internal/odb"
	"odbscale/internal/sim"
	"odbscale/internal/xrand"
)

// refRun is the per-reference synthesizer that the batched Run replaced,
// kept as the reference for the differential test: every reference
// draws its own random numbers between model calls.
func (s *Synth) refRun(spec ChunkSpec) Events {
	var ev Events
	ev.FetchRefs = s.count(spec.Instr, s.cfg.FetchLinesPerInstr)
	ev.DataRefs = s.count(spec.Instr, s.cfg.DataRefsPerInstr)
	ev.Branches = s.count(spec.Instr, s.cfg.BranchesPerInstr)

	codeBase, codeZ := baseUserCode, s.userCodeZ
	if spec.OS {
		codeBase, codeZ = baseOSCode, s.osCodeZ
	}
	phys := s.cpuMap(spec.CPU)
	tlb := s.tlbs[spec.CPU]
	for i := uint64(0); i < ev.FetchRefs; i++ {
		addr := cache.Addr(codeBase + codeZ.Next()*64)
		if s.tap != nil {
			s.tap(phys, addr, cache.Fetch)
		}
		s.record(&ev, spec.Now, s.domain.Access(phys, addr, cache.Fetch))
	}

	dataAccess := func(addr cache.Addr, store bool) {
		kind := cache.Load
		if store {
			kind = cache.Store
		}
		if !tlb.Access(uint64(addr)) {
			ev.TLBMiss++
		}
		if s.tap != nil {
			s.tap(phys, addr, kind)
		}
		s.record(&ev, spec.Now, s.domain.Access(phys, addr, kind))
	}
	if spec.OS || len(spec.Blocks) == 0 {
		for i := uint64(0); i < ev.DataRefs; i++ {
			dataAccess(s.refDataRef(spec))
		}
	} else {
		nStruct := uint64(float64(ev.DataRefs) * s.cfg.PBlock)
		nTail := uint64(float64(ev.DataRefs) * s.cfg.TailFrac)
		nMeta := uint64(float64(ev.DataRefs) * s.cfg.PMeta)
		for i := uint64(0); i < nStruct; i++ {
			dataAccess(cache.Addr(baseBlocks+s.structZ.Next()*64), s.rng.Bernoulli(s.cfg.StructStoreFrac))
		}
		for i := uint64(0); i < nTail; i++ {
			b := uint64(spec.Blocks[s.rng.Intn(len(spec.Blocks))])
			line := uint64(s.rng.Intn(int(s.blockLines)))
			addr := cache.Addr(baseBlockTail + (b*s.blockLines+line)*64)
			dataAccess(addr, s.rng.Bernoulli(s.cfg.BlockStoreFrac))
		}
		for i := uint64(0); i < nMeta; i++ {
			dataAccess(cache.Addr(baseMeta+s.metaZ.Next()*64), s.rng.Bernoulli(s.cfg.MetaStoreFrac))
		}
		for i := nStruct + nTail + nMeta; i < ev.DataRefs; i++ {
			dataAccess(s.refPGARef(spec.ProcID), s.rng.Bernoulli(s.cfg.PGAStoreFrac))
		}
	}

	bp := s.bps[spec.CPU]
	for i := uint64(0); i < ev.Branches; i++ {
		site := s.branchZ.Next()
		taken := s.rng.Float64() < branchBiasTab[site]
		if !bp.Record(site, taken) {
			ev.Mispred++
		}
	}
	return ev
}

func (s *Synth) refDataRef(spec ChunkSpec) (cache.Addr, bool) {
	r := s.rng.Float64()
	if spec.OS {
		switch {
		case r < 0.52:
			line := uint64(spec.CPU)*s.kernelStride + s.kernelZ.Next()
			return cache.Addr(baseKernel + line*64), s.rng.Bernoulli(0.40)
		case r < 0.70:
			return cache.Addr(baseKernel + (s.kernelShared+s.kernelZ.Next())*64), s.rng.Bernoulli(0.04)
		case r < 0.94:
			return cache.Addr(baseMeta + s.metaZ.Next()*64), s.rng.Bernoulli(s.cfg.MetaStoreFrac)
		default:
			return s.refPGARef(spec.ProcID), s.rng.Bernoulli(s.cfg.PGAStoreFrac)
		}
	}
	switch {
	case r < s.cfg.PMeta:
		return cache.Addr(baseMeta + s.metaZ.Next()*64), s.rng.Bernoulli(s.cfg.MetaStoreFrac)
	default:
		return s.refPGARef(spec.ProcID), s.rng.Bernoulli(s.cfg.PGAStoreFrac)
	}
}

func (s *Synth) refPGARef(proc int) cache.Addr {
	return cache.Addr(basePGA + (uint64(proc)*s.pgaRegion+s.pgaZ.Next())*64)
}

// tapRecord is one reference as the tap saw it.
type tapRecord struct {
	cpu  int
	addr cache.Addr
	kind cache.Kind
}

// randomSpecs draws a mix of user chunks with blocks, blockless user
// chunks and OS chunks, over CPUs and processes, with instruction counts
// from a few references to several batches per class (8M instructions
// make more than 256 references even in the tail class).
func randomSpecs(rng *xrand.Rand, cpus, n int) []ChunkSpec {
	specs := make([]ChunkSpec, n)
	for i := range specs {
		spec := ChunkSpec{
			Now:    sim.Time(i) * 50_000,
			CPU:    rng.Intn(cpus),
			ProcID: rng.Intn(8),
			Instr:  uint64(rng.Intn(8_000_000)),
		}
		switch rng.Intn(4) {
		case 0:
			spec.OS = true
		case 1: // blockless user chunk
		default:
			spec.Blocks = make([]odb.BlockID, 1+rng.Intn(20))
			for j := range spec.Blocks {
				spec.Blocks[j] = odb.BlockID(rng.Intn(50_000))
			}
		}
		if i%5 == 0 {
			spec.Instr = uint64(rng.Intn(2000)) // a few references per class
		}
		specs[i] = spec
	}
	return specs
}

func TestRunMatchesPerReferenceDraws(t *testing.T) {
	// Store fractions of 0 and 1 take Bernoulli's no-draw edges.
	stores := func(p float64) func(*Config) {
		return func(c *Config) {
			c.StructStoreFrac, c.BlockStoreFrac, c.MetaStoreFrac, c.PGAStoreFrac = p, p, p, p
		}
	}
	const cpus = 2
	for _, mix := range []struct {
		name string
		set  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"stores=0", stores(0)},
		{"stores=1", stores(1)},
		{"fractions>1", func(c *Config) { c.PBlock, c.PMeta = 0.6, 0.5 }}, // no PGA references
	} {
		for _, tapOn := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/tap=%v", mix.name, tapOn), func(t *testing.T) {
				cfg := DefaultConfig(testScale)
				mix.set(&cfg)
				build := func() (*Synth, *[]tapRecord) {
					g := ScaledGeometry(cache.XeonGeometry(), testScale)
					d := cache.NewDomain(g, cpus, true)
					b := bus.New(bus.DefaultConfig(), float64(testScale))
					s := New(cfg, d, b, xrand.New(42))
					taps := new([]tapRecord)
					if tapOn {
						s.SetTap(func(cpu int, addr cache.Addr, kind cache.Kind) {
							*taps = append(*taps, tapRecord{cpu, addr, kind})
						})
					}
					return s, taps
				}
				got, gotTaps := build()
				want, wantTaps := build()
				for i, spec := range randomSpecs(xrand.New(43), cpus, 60) {
					g, w := got.Run(spec), want.refRun(spec)
					if g != w {
						t.Fatalf("chunk %d (%+v): events\n got %+v\nwant %+v", i, spec, g, w)
					}
				}
				if len(*gotTaps) != len(*wantTaps) {
					t.Fatalf("tap saw %d references, want %d", len(*gotTaps), len(*wantTaps))
				}
				for i := range *gotTaps {
					if (*gotTaps)[i] != (*wantTaps)[i] {
						t.Fatalf("tap record %d: got %+v, want %+v", i, (*gotTaps)[i], (*wantTaps)[i])
					}
				}
				// Every TLB and predictor holds the same state: probed with
				// the same hot lines and branches, they answer alike.
				probe := xrand.New(44)
				hits := 0
				for c := 0; c < cpus; c++ {
					for i := 0; i < 256; i++ {
						base := [...]uint64{baseBlocks, baseMeta, basePGA, baseKernel}[i%4]
						addr := base + uint64(i/4)*64
						g, w := got.tlbs[c].Access(addr), want.tlbs[c].Access(addr)
						if g != w {
							t.Fatalf("cpu %d TLB probe %d (%#x): hit %v, want %v", c, i, addr, g, w)
						}
						if g {
							hits++
						}
						site, taken := probe.Uint64()%512, probe.Bernoulli(0.5)
						if g, w := got.bps[c].Record(site, taken), want.bps[c].Record(site, taken); g != w {
							t.Fatalf("cpu %d predictor probe %d (site %d): correct %v, want %v", c, i, site, g, w)
						}
					}
				}
				if hits == 0 {
					t.Fatal("TLB probes never hit, so they compare no state")
				}
				// Every stream stands where per-reference drawing leaves it.
				if g, w := got.rng.Uint64(), want.rng.Uint64(); g != w {
					t.Fatalf("rng stream diverged: next draw %d, want %d", g, w)
				}
				zipfs := func(s *Synth) []*xrand.Zipf {
					return []*xrand.Zipf{s.userCodeZ, s.osCodeZ, s.metaZ, s.kernelZ, s.pgaZ, s.branchZ, s.structZ}
				}
				for i, gz := range zipfs(got) {
					wz := zipfs(want)[i]
					for d := 0; d < 4; d++ {
						if g, w := gz.Next(), wz.Next(); g != w {
							t.Fatalf("zipf %d stream diverged: next draw %d, want %d", i, g, w)
						}
					}
				}
			})
		}
	}
}

// BenchmarkSynthRun runs a fixed mix of chunks on a fresh two-CPU domain;
// one op is one chunk.
func BenchmarkSynthRun(b *testing.B) {
	specs := randomSpecs(xrand.New(1), 2, 64)
	for i := range specs {
		specs[i].Instr = 200_000
	}
	s := testSynth(2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(specs[i%len(specs)])
	}
}

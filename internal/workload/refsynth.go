// Package workload synthesizes the memory-reference, branch and TLB
// activity of executed instruction chunks and drives the cache hierarchy,
// bus, branch predictors and TLBs with it.
//
// Simulating every reference of a million-instruction transaction is
// infeasible, so the synthesizer uses scaled-system simulation: every
// footprint (code, SGA metadata, block payloads, private process memory)
// and every cache capacity is divided by the same scale factor S, and
// references are generated at 1/S of the real per-instruction rate.
// Capacity ratios and reuse behaviour are preserved, so miss *ratios* are
// unbiased; real event counts are recovered by multiplying observed
// counts by S. The bus model is told the same factor so utilization is
// accounted at full scale.
//
// The reference mixture reflects what an OLTP server process touches:
// the payload lines of the database blocks its current chunk accessed,
// shared SGA metadata (buffer headers and latches — the source of
// cross-processor sharing), and the process-private PGA. OS-mode chunks
// touch kernel code and data instead. The union of payload blocks grows
// with the warehouse count, which is what drives the paper's MPI curves.
package workload

import (
	"odbscale/internal/bus"
	"odbscale/internal/cache"
	"odbscale/internal/cpu"
	"odbscale/internal/odb"
	"odbscale/internal/sim"
	"odbscale/internal/xrand"
)

// Region bases, spaced so regions can never collide.
const (
	baseUserCode  uint64 = 1 << 40
	baseOSCode    uint64 = 2 << 40
	baseMeta      uint64 = 3 << 40
	baseKernel    uint64 = 4 << 40
	basePGA       uint64 = 5 << 40
	baseBlocks    uint64 = 8 << 40
	baseBlockTail uint64 = 16 << 40
)

// Config parameterizes the synthesizer. Sizes are real (unscaled) bytes.
type Config struct {
	Scale uint64 // S; footprints and rates are divided by this

	// DataRefsPerInstr and FetchLinesPerInstr are the rates of references
	// that reach the L2 (i.e. after first-level filtering, which the
	// NetBurst L1D and trace-cache hit paths absorb); the Table 4 CPI
	// formulas only charge stalls to L2-and-beyond events.
	DataRefsPerInstr   float64
	FetchLinesPerInstr float64
	BranchesPerInstr   float64

	UserCodeBytes int // hot database server code footprint
	OSCodeBytes   int
	MetaBytes     int // SGA metadata: buffer headers, latches, library cache
	KernelBytes   int // kernel data structures
	PGABytes      int // private memory per server process

	// HotSetBytes is the real byte size of the workload's structural hot
	// set: index roots and branch levels, district rows, insert points of
	// the append regions, and the buffer headers of hot blocks. It grows
	// linearly with the warehouse count (the system layer sets it), and
	// its crossing of the L3 capacity is the paper's cached-to-scaled
	// transition.
	HotSetBytes int

	// Data-reference mixture for user mode: PBlock of the references go
	// to the structural hot set (addressed through the touched blocks),
	// TailFrac to cold block payloads (a reuse-free floor), PMeta to SGA
	// latches and library-cache metadata; the remainder goes to the PGA.
	PBlock   float64
	PMeta    float64
	TailFrac float64

	// LogicalCPUs sizes the per-thread models (TLBs, branch predictors)
	// when hardware threads share a physical cache hierarchy; zero means
	// one thread per hierarchy.
	LogicalCPUs int

	// Store fractions per class. The structural set (index upper levels,
	// headers) is read-mostly; payload tails carry the row updates.
	StructStoreFrac float64
	BlockStoreFrac  float64
	MetaStoreFrac   float64
	PGAStoreFrac    float64
}

// DefaultConfig returns the calibrated defaults used by the system model.
func DefaultConfig(scale uint64) Config {
	return Config{
		Scale:              scale,
		DataRefsPerInstr:   0.045,
		FetchLinesPerInstr: 1.0 / 56,
		BranchesPerInstr:   0.20,
		UserCodeBytes:      512 << 10,
		OSCodeBytes:        128 << 10,
		MetaBytes:          16 << 20,
		KernelBytes:        128 << 10,
		PGABytes:           32 << 10,
		HotSetBytes:        2 << 20,
		PBlock:             0.50,
		PMeta:              0.20,
		TailFrac:           0.07,
		StructStoreFrac:    0.005,
		BlockStoreFrac:     0.30,
		MetaStoreFrac:      0.02,
		PGAStoreFrac:       0.40,
	}
}

// ScaledGeometry derives the cache geometry for the scaled address space
// from a real geometry: set counts are divided by Scale (rounded down to
// a power of two, minimum one set), associativity and line size are kept.
func ScaledGeometry(g cache.Geometry, scale uint64) cache.Geometry {
	shrink := func(size, ways int) int {
		sets := size / (ways * g.LineSize * int(scale))
		p := 1
		for p*2 <= sets {
			p *= 2
		}
		if sets < 1 {
			p = 1
		}
		return p * ways * g.LineSize
	}
	out := g
	out.Sample = 1 // addresses are pre-scaled; no hash filtering
	out.TCSize = shrink(g.TCSize, g.TCWays)
	out.L2Size = shrink(g.L2Size, g.L2Ways)
	out.L3Size = shrink(g.L3Size, g.L3Ways)
	return out
}

// ChunkSpec describes one executed chunk.
type ChunkSpec struct {
	Now    sim.Time
	CPU    int
	ProcID int
	OS     bool
	Instr  uint64
	Blocks []odb.BlockID // payload blocks this chunk touched
}

// Events are the scaled event counts of one chunk. Real counts are these
// multiplied by the scale factor.
type Events struct {
	FetchRefs  uint64
	DataRefs   uint64
	TCMiss     uint64
	L2Miss     uint64
	L3Miss     uint64
	CoherMiss  uint64
	Writebacks uint64
	TLBMiss    uint64
	Branches   uint64
	Mispred    uint64
	BusLatency float64 // summed IOQ latency over the chunk's L3 misses
}

// Synth drives the microarchitectural models for one machine.
type Synth struct {
	cfg Config
	rng *xrand.Rand

	domain *cache.Domain
	fsb    *bus.Bus
	cpuMap func(logical int) int // logical CPU -> cache hierarchy
	tap    func(cpu int, addr cache.Addr, kind cache.Kind)
	tlbs   []*cpu.TLB
	bps    []*cpu.BranchPredictor

	userCodeZ *xrand.Zipf
	osCodeZ   *xrand.Zipf
	metaZ     *xrand.Zipf
	kernelZ   *xrand.Zipf
	pgaZ      *xrand.Zipf
	branchZ   *xrand.Zipf

	scaledLines func(bytes int) uint64
	blockLines  uint64
	structLines uint64 // scaled size of the structural hot set
	structZ     *xrand.Zipf

	// Hoisted per-reference constants: the scaled region strides the data
	// reference helpers would otherwise recompute for every reference.
	kernelStride uint64
	kernelShared uint64
	pgaRegion    uint64
}

// branchBiasTab caches branchBias over the 512 branch sites the branch
// Zipf draws from, so the per-branch loop does one table read instead of
// a hash and switch.
var branchBiasTab = func() [512]float64 {
	var t [512]float64
	for i := range t {
		t[i] = branchBias(uint64(i))
	}
	return t
}()

// New builds a synthesizer over the given (already scaled) cache domain
// and bus. One TLB and branch predictor is created per CPU.
func New(cfg Config, domain *cache.Domain, fsb *bus.Bus, rng *xrand.Rand) *Synth {
	if cfg.Scale == 0 {
		panic("workload: zero scale")
	}
	s := &Synth{cfg: cfg, rng: rng, domain: domain, fsb: fsb, cpuMap: func(l int) int { return l }}
	n := len(domain.CPUs)
	if cfg.LogicalCPUs > n {
		n = cfg.LogicalCPUs
	}
	for i := 0; i < n; i++ {
		s.tlbs = append(s.tlbs, cpu.NewTLB(64, 4, 64)) // page = one scaled line
		s.bps = append(s.bps, cpu.NewBranchPredictor(13, 2))
	}
	s.scaledLines = func(bytes int) uint64 {
		l := uint64(bytes) / 64 / cfg.Scale
		if l < 2 {
			l = 2
		}
		return l
	}
	s.userCodeZ = xrand.NewZipf(rng.Split(1), 1.6, s.scaledLines(cfg.UserCodeBytes))
	s.osCodeZ = xrand.NewZipf(rng.Split(2), 1.6, s.scaledLines(cfg.OSCodeBytes))
	s.metaZ = xrand.NewZipf(rng.Split(3), 1.7, s.scaledLines(cfg.MetaBytes))
	s.kernelZ = xrand.NewZipf(rng.Split(4), 1.6, s.scaledLines(cfg.KernelBytes))
	s.pgaZ = xrand.NewZipf(rng.Split(5), 1.3, s.scaledLines(cfg.PGABytes))
	s.branchZ = xrand.NewZipf(rng.Split(6), 1.05, 512)
	s.blockLines = uint64(odb.BlockSize) / 64 / cfg.Scale
	if s.blockLines < 1 {
		s.blockLines = 1
	}
	s.structLines = s.scaledLines(cfg.HotSetBytes)
	s.structZ = xrand.NewZipf(rng.Split(7), 1.0, s.structLines)
	s.kernelStride = s.scaledLines(cfg.KernelBytes)
	s.kernelShared = uint64(len(s.tlbs)) * s.kernelStride
	s.pgaRegion = s.scaledLines(cfg.PGABytes)
	return s
}

// count converts a real per-instruction rate into a scaled event count
// with stochastic rounding.
func (s *Synth) count(instr uint64, rate float64) uint64 {
	x := float64(instr) * rate / float64(s.cfg.Scale)
	n := uint64(x)
	if s.rng.Float64() < x-float64(n) {
		n++
	}
	return n
}

// SetCPUMap installs the logical-to-physical CPU mapping used when
// hardware threads share a cache hierarchy (SMT). The default is the
// identity.
func (s *Synth) SetCPUMap(f func(logical int) int) { s.cpuMap = f }

// SetTap installs a per-reference callback (trace capture). The tap sees
// the physical CPU and the scaled address of every simulated reference.
func (s *Synth) SetTap(f func(cpu int, addr cache.Addr, kind cache.Kind)) { s.tap = f }

// Run synthesizes the activity of one chunk and returns its scaled event
// counts.
func (s *Synth) Run(spec ChunkSpec) Events {
	var ev Events
	ev.FetchRefs = s.count(spec.Instr, s.cfg.FetchLinesPerInstr)
	ev.DataRefs = s.count(spec.Instr, s.cfg.DataRefsPerInstr)
	ev.Branches = s.count(spec.Instr, s.cfg.BranchesPerInstr)

	// Instruction fetches.
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

	// Data references. User-mode chunks split them across the block,
	// metadata and PGA classes; block and header references cycle through
	// the chunk's visited-block list so that every visited block receives
	// its head-line touches — the chunk's cold blocks then miss according
	// to their true inter-chunk reuse distance, which is the mechanism
	// that couples MPI to the workload's block footprint.
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
			dataAccess(s.dataRef(spec))
		}
	} else {
		nStruct := uint64(float64(ev.DataRefs) * s.cfg.PBlock)
		nTail := uint64(float64(ev.DataRefs) * s.cfg.TailFrac)
		nMeta := uint64(float64(ev.DataRefs) * s.cfg.PMeta)
		for i := uint64(0); i < nStruct; i++ {
			dataAccess(s.structRef(), s.rng.Bernoulli(s.cfg.StructStoreFrac))
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
			dataAccess(s.pgaRef(spec.ProcID), s.rng.Bernoulli(s.cfg.PGAStoreFrac))
		}
	}

	// Branches. The bias table is in (0, 1) for every site, so the direct
	// Float64 compare consumes the stream exactly as Bernoulli would.
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

// branchBias gives each branch site a stable taken-probability: most
// sites are strongly biased (well-predicted), a minority are weakly
// biased (the residual mispredictions).
func branchBias(site uint64) float64 {
	h := (site * 0x9e3779b97f4a7c15) >> 33
	switch m := h % 100; {
	case m < 5:
		return 0.70 // hard branches
	case m < 7:
		return 0.50 // data-dependent
	default:
		if h%2 == 0 {
			return 0.97
		}
		return 0.03
	}
}

// dataRef picks a data address for the chunk.
func (s *Synth) dataRef(spec ChunkSpec) (cache.Addr, bool) {
	r := s.rng.Float64()
	if spec.OS {
		// Kernel structures dominate. Most kernel data is per-CPU (run
		// queues, slab magazines, stats) and never shared; a smaller slice
		// (global lists, the page cache radix tree) is shared read-mostly.
		switch {
		case r < 0.52:
			line := uint64(spec.CPU)*s.kernelStride + s.kernelZ.Next()
			return cache.Addr(baseKernel + line*64), s.rng.Bernoulli(0.40)
		case r < 0.70:
			return cache.Addr(baseKernel + (s.kernelShared+s.kernelZ.Next())*64), s.rng.Bernoulli(0.04)
		case r < 0.94:
			return cache.Addr(baseMeta + s.metaZ.Next()*64), s.rng.Bernoulli(s.cfg.MetaStoreFrac)
		default:
			return s.pgaRef(spec.ProcID), s.rng.Bernoulli(s.cfg.PGAStoreFrac)
		}
	}
	switch {
	case r < s.cfg.PMeta:
		// Blockless user chunks still touch SGA metadata.
		return cache.Addr(baseMeta + s.metaZ.Next()*64), s.rng.Bernoulli(s.cfg.MetaStoreFrac)
	default:
		return s.pgaRef(spec.ProcID), s.rng.Bernoulli(s.cfg.PGAStoreFrac)
	}
}

// structRef draws a reference from the structural hot set: the index
// roots and branch levels, district rows, append-region insert points and
// buffer headers every transaction walks. The set occupies HotSetBytes
// (growing with the warehouse count); popularity within it is mildly
// skewed — roots are hotter than individual branch lines or headers.
func (s *Synth) structRef() cache.Addr {
	return cache.Addr(baseBlocks + s.structZ.Next()*64)
}

func (s *Synth) pgaRef(proc int) cache.Addr {
	return cache.Addr(basePGA + (uint64(proc)*s.pgaRegion+s.pgaZ.Next())*64)
}

// record folds one access result into the chunk's events and drives the
// bus, at simulated time now, for L3 misses and writebacks.
func (s *Synth) record(ev *Events, now sim.Time, res cache.AccessResult) {
	if res.TCMiss {
		ev.TCMiss++
	}
	if res.L2Miss {
		ev.L2Miss++
	}
	if res.L3Miss {
		ev.L3Miss++
		if res.Coherence {
			ev.CoherMiss++
		}
		ev.BusLatency += s.fsb.Transaction(now)
	}
	if res.Writeback {
		ev.Writebacks++
		s.fsb.Posted(now, float64(s.cfg.Scale))
	}
}

// Scale returns the configured scale factor.
func (s *Synth) Scale() uint64 { return s.cfg.Scale }

// FlushTLB flushes one CPU's TLB (address-space switch).
func (s *Synth) FlushTLB(cpuID int) { s.tlbs[cpuID].Flush() }

// TLBs and Predictors expose per-CPU models for statistics.
func (s *Synth) TLBs() []*cpu.TLB { return s.tlbs }

// Predictors returns the per-CPU branch predictors.
func (s *Synth) Predictors() []*cpu.BranchPredictor { return s.bps }

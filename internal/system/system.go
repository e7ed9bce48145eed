package system

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"odbscale/internal/buffercache"
	"odbscale/internal/bus"
	"odbscale/internal/cache"
	"odbscale/internal/cpu"
	"odbscale/internal/engine"
	_ "odbscale/internal/engine/btree" // register the default engine
	_ "odbscale/internal/engine/lsm"   // register the LSM engine
	"odbscale/internal/odb"
	"odbscale/internal/osker"
	"odbscale/internal/profile"
	"odbscale/internal/qstats"
	"odbscale/internal/sim"
	"odbscale/internal/storage"
	"odbscale/internal/telemetry"
	"odbscale/internal/txtrace"
	"odbscale/internal/workload"
	"odbscale/internal/xrand"
)

// serverProc is the per-process payload: the ODB server process state.
type serverProc struct {
	txn   *odb.Txn
	opIdx int
	// pendingOS is the OS instruction bill of the process's next chunk:
	// deferred I/O-completion and writer-assist work charged while it
	// slept, plus what the running chunk charges through chargeOS.
	pendingOS uint64
	carry     []odb.BlockID      // blocks installed by I/O since the last chunk
	dbWriter  bool               // the engine-maintenance process (DB writer / compactor)
	startAt   sim.Time           // when the current transaction was generated (flight recorder)
	ts        *txtrace.ProcState // span builder (nil unless WithSpans)

	wake      func()        // prebound scheduler wakeup, shared by every wait site
	blocksBuf []odb.BlockID // per-chunk visited-block scratch, reused across chunks

	// Queueing-observatory block mark (nil unless WithQueueStats): the
	// delay-center station the current block was attributed to, completed
	// retro-dated at the next chunk start. qsBlockEnd is the simulated
	// time the blocking chunk's own cycles end — the wait starts there,
	// not at the block decision inside the chunk.
	qsSt       *qstats.Station
	qsBlockEnd sim.Time
}

// machine is one fully assembled simulation instance.
type machine struct {
	cfg    Config
	eng    *sim.Engine
	rng    *xrand.Rand
	layout *odb.Layout
	gen    *odb.Generator
	se     engine.Instance // the storage engine behind the op streams
	bc     *buffercache.Cache
	lm     *odb.LockManager
	disks  *storage.Array
	fsb    *bus.Bus
	domain *cache.Domain
	synth  *workload.Synth
	sched  *osker.Scheduler

	cyclesPerMS float64

	ctr counters

	// Observer hooks, registered by the options in argument order:
	// atReset runs at measurement start (before the components zero
	// their statistics), atEnd after the final metrics are assembled.
	// extraDone is an extra drive-loop completion condition (EMON's
	// schedule).
	atReset   []func()
	atEnd     []func(Metrics) error
	extraDone func() bool

	// Flight recorder (nil unless WithRecorder).
	rec *telemetry.Recorder

	// Cycle-attribution profiler (nil unless WithProfiler). runChunk
	// appends its per-frame instruction shares to the scratch lists and
	// hands them to price, which apportions the chunk's cycles and events
	// over them; runChunk then truncates them. The maintenance process and
	// the context switch pass their own one-share lists, so a switch
	// priced inside a running chunk leaves that chunk's shares intact.
	// Purely observational: no randomness, no scheduling.
	prof       *profile.Collector
	userShares []profile.Share
	osShares   []profile.Share

	// Span tracer (nil unless WithSpans). Purely observational, like the
	// recorder and profiler: no randomness, no scheduling.
	spans *txtrace.Tracer

	// Queueing observatory (nil unless WithQueueStats). Purely
	// observational like the other observers: stations accumulate inline
	// arithmetic at existing event sites, so no randomness is drawn and
	// no events are scheduled. qsLock/qsBusy/qsEngine cache the
	// delay-center stations the chunk loop marks at its block sites;
	// procs lists every admitted server process so measurement reset can
	// clear in-flight block marks.
	qs       *qstats.Collector
	qsLock   *qstats.Station
	qsBusy   *qstats.Station
	qsEngine *qstats.Station
	procs    []*serverProc

	measuring bool
	wantReset bool
	resetAt   sim.Time
	txns      uint64 // measured commits
	totalTxns uint64
	user, os  modeAccum
	logBytes  float64
	evictWr   uint64
	busyWaits uint64
	fgReads   uint64 // executed foreground block reads (read-amplification numerator)

	// inflight tracks blocks with an outstanding disk read; later missers
	// join the waiter list instead of issuing a duplicate read.
	inflight map[odb.BlockID][]ioWaiter
	// waiterPool recycles the per-block waiter slices that inflight
	// entries use, and dbwScratch is the DB writer's reusable batch
	// buffer; both keep the steady-state I/O path allocation-free.
	waiterPool [][]ioWaiter
	dbwScratch []odb.BlockID
}

type ioWaiter struct {
	proc  *osker.Proc
	sp    *serverProc
	write bool
}

// Sentinel errors for configuration validation. They are wrapped with
// the offending values, so match them with errors.Is.
var (
	// ErrBadConfig reports a configuration Run cannot execute: a
	// non-positive warehouse, client or processor count, or a machine or
	// tuning field (named by its path) that would panic or never finish.
	ErrBadConfig = errors.New("bad configuration")
	// ErrNoTxns reports a configuration without a positive MeasureTxns.
	ErrNoTxns = errors.New("MeasureTxns must be positive")
	// ErrBadEngine reports a configuration naming an unregistered
	// storage engine.
	ErrBadEngine = errors.New("unknown storage engine")
)

// Validate rejects configurations Run cannot execute, with the errors
// Run would return for them.
func Validate(cfg Config) error {
	if cfg.Warehouses < 1 || cfg.Clients < 1 || cfg.Processors < 1 {
		return fmt.Errorf("system: %w: W=%d C=%d P=%d",
			ErrBadConfig, cfg.Warehouses, cfg.Clients, cfg.Processors)
	}
	if cfg.MeasureTxns < 1 {
		return fmt.Errorf("system: %w", ErrNoTxns)
	}
	// Fields that would otherwise panic (a zero buffer cache, disk set,
	// cache line size or associativity, scale or OS quantum; a negative
	// disk time, OtherCPI, busy wait or stall cost schedules an event in
	// the past; a negative footprint asks for an unbounded Zipf table),
	// never finish (a zero clock leaves no simulated-time cap; a negative
	// warm-up never ends; a zero chunk or a DB-writer tick under one
	// cycle stops simulated time from advancing; a negative, NaN or
	// huge reference rate or mixture fraction makes one chunk issue
	// billions of references; a zero memtable or a fanout below two
	// makes the LSM compact without end), finish with no transactions (a
	// NaN or negative stall or bus cost, or a NaN bandwidth scale) or
	// have no physical meaning (a store fraction outside [0, 1], an L3
	// miss that costs less than its own bus transaction).
	m, t, sy := cfg.Machine, cfg.Tuning, cfg.Tuning.Synth
	switch {
	case !(m.FreqHz > 0) || math.IsInf(m.FreqHz, 1):
		return badField("Machine.FreqHz", m.FreqHz)
	case m.BufferCacheMB < 1:
		return badField("Machine.BufferCacheMB", m.BufferCacheMB)
	case m.Disks.DataDisks < 1:
		return badField("Machine.Disks.DataDisks", m.Disks.DataDisks)
	case m.Disks.LogDisks < 1:
		return badField("Machine.Disks.LogDisks", m.Disks.LogDisks)
	case !(m.Disks.AccessMS >= 0):
		return badField("Machine.Disks.AccessMS", m.Disks.AccessMS)
	case !(m.Disks.WriteMS >= 0):
		return badField("Machine.Disks.WriteMS", m.Disks.WriteMS)
	case !(m.Disks.LogMS >= 0):
		return badField("Machine.Disks.LogMS", m.Disks.LogMS)
	case !(m.Disks.TransferMS >= 0):
		return badField("Machine.Disks.TransferMS", m.Disks.TransferMS)
	case !unit(m.Disks.Jitter):
		return badField("Machine.Disks.Jitter", m.Disks.Jitter)
	case !cost(m.Stall.InstBase):
		return badField("Machine.Stall.InstBase", m.Stall.InstBase)
	case !cost(m.Stall.BranchMispred):
		return badField("Machine.Stall.BranchMispred", m.Stall.BranchMispred)
	case !cost(m.Stall.TLBMiss):
		return badField("Machine.Stall.TLBMiss", m.Stall.TLBMiss)
	case !cost(m.Stall.TCMiss):
		return badField("Machine.Stall.TCMiss", m.Stall.TCMiss)
	case !cost(m.Stall.L2Miss):
		return badField("Machine.Stall.L2Miss", m.Stall.L2Miss)
	case !cost(m.Stall.L3Miss):
		return badField("Machine.Stall.L3Miss", m.Stall.L3Miss)
	case !cost(m.Stall.BusTime1P):
		return badField("Machine.Stall.BusTime1P", m.Stall.BusTime1P)
	case m.Stall.L3Miss < m.Stall.BusTime1P:
		return fmt.Errorf("system: %w: Machine.Stall.L3Miss = %v is below Machine.Stall.BusTime1P = %v",
			ErrBadConfig, m.Stall.L3Miss, m.Stall.BusTime1P)
	case !cost(m.Bus.OccupancyCycles):
		return badField("Machine.Bus.OccupancyCycles", m.Bus.OccupancyCycles)
	case !cost(m.Bus.BaseLatency):
		return badField("Machine.Bus.BaseLatency", m.Bus.BaseLatency)
	case !cost(m.Bus.QueueFactor):
		return badField("Machine.Bus.QueueFactor", m.Bus.QueueFactor)
	case !(m.Bus.BandwidthScale > 0):
		return badField("Machine.Bus.BandwidthScale", m.Bus.BandwidthScale)
	case m.Geometry.LineSize < 1:
		return badField("Machine.Geometry.LineSize", m.Geometry.LineSize)
	case m.Geometry.TCWays < 1:
		return badField("Machine.Geometry.TCWays", m.Geometry.TCWays)
	case m.Geometry.L2Ways < 1:
		return badField("Machine.Geometry.L2Ways", m.Geometry.L2Ways)
	case m.Geometry.L3Ways < 1:
		return badField("Machine.Geometry.L3Ways", m.Geometry.L3Ways)
	case t.Scale == 0:
		return badField("Tuning.Scale", t.Scale)
	case t.QuantumInstr == 0:
		return badField("Tuning.QuantumInstr", t.QuantumInstr)
	case t.ChunkInstr == 0:
		return badField("Tuning.ChunkInstr", t.ChunkInstr)
	case !(t.DBWriterIntervalMS*(m.FreqHz/1e3) >= 1):
		return fmt.Errorf("system: %w: Tuning.DBWriterIntervalMS = %v at Machine.FreqHz = %v is a DB-writer tick under one cycle",
			ErrBadConfig, t.DBWriterIntervalMS, m.FreqHz)
	case !(t.OtherCPI >= 0):
		return badField("Tuning.OtherCPI", t.OtherCPI)
	case !(t.BusyWaitMS >= 0):
		return badField("Tuning.BusyWaitMS", t.BusyWaitMS)
	case t.HotBytesPerWhs < 0:
		return badField("Tuning.HotBytesPerWhs", t.HotBytesPerWhs)
	case sy.UserCodeBytes < 0:
		return badField("Tuning.Synth.UserCodeBytes", sy.UserCodeBytes)
	case sy.OSCodeBytes < 0:
		return badField("Tuning.Synth.OSCodeBytes", sy.OSCodeBytes)
	case sy.MetaBytes < 0:
		return badField("Tuning.Synth.MetaBytes", sy.MetaBytes)
	case sy.KernelBytes < 0:
		return badField("Tuning.Synth.KernelBytes", sy.KernelBytes)
	case sy.PGABytes < 0:
		return badField("Tuning.Synth.PGABytes", sy.PGABytes)
	case !unit(sy.DataRefsPerInstr):
		return badField("Tuning.Synth.DataRefsPerInstr", sy.DataRefsPerInstr)
	case !unit(sy.FetchLinesPerInstr):
		return badField("Tuning.Synth.FetchLinesPerInstr", sy.FetchLinesPerInstr)
	case !unit(sy.BranchesPerInstr):
		return badField("Tuning.Synth.BranchesPerInstr", sy.BranchesPerInstr)
	case !unit(sy.PBlock):
		return badField("Tuning.Synth.PBlock", sy.PBlock)
	case !unit(sy.PMeta):
		return badField("Tuning.Synth.PMeta", sy.PMeta)
	case !unit(sy.TailFrac):
		return badField("Tuning.Synth.TailFrac", sy.TailFrac)
	case !unit(sy.StructStoreFrac):
		return badField("Tuning.Synth.StructStoreFrac", sy.StructStoreFrac)
	case !unit(sy.BlockStoreFrac):
		return badField("Tuning.Synth.BlockStoreFrac", sy.BlockStoreFrac)
	case !unit(sy.MetaStoreFrac):
		return badField("Tuning.Synth.MetaStoreFrac", sy.MetaStoreFrac)
	case !unit(sy.PGAStoreFrac):
		return badField("Tuning.Synth.PGAStoreFrac", sy.PGAStoreFrac)
	case cfg.WarmupTxns < 0:
		return badField("WarmupTxns", cfg.WarmupTxns)
	case cfg.Engine == "lsm" && t.LSM.MemtableMB < 1:
		return badField("Tuning.LSM.MemtableMB", t.LSM.MemtableMB)
	case cfg.Engine == "lsm" && t.LSM.Fanout < 2:
		return badField("Tuning.LSM.Fanout", t.LSM.Fanout)
	}
	if _, ok := engine.Lookup(cfg.Engine); !ok {
		return fmt.Errorf("system: %w: %q (have %v)", ErrBadEngine, cfg.Engine, engine.Names())
	}
	return nil
}

// unit reports whether x is in [0, 1]: a probability, a mixture fraction
// or an event rate of at most one per instruction.
func unit(x float64) bool { return x >= 0 && x <= 1 }

// cost reports whether x is a finite, non-negative cycle cost.
func cost(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// badField reports the configuration field at path as ErrBadConfig.
func badField(path string, v any) error {
	return fmt.Errorf("system: %w: %s = %v", ErrBadConfig, path, v)
}

// capSimCycles bounds a run to 300 simulated seconds, so I/O-bound
// configurations that cannot reach the transaction target still finish.
func capSimCycles(cfg Config) sim.Time {
	return sim.Time(300 * cfg.Machine.FreqHz)
}

func build(cfg Config) *machine {
	t := cfg.Tuning
	eng := sim.New()
	rng := xrand.New(cfg.Seed)
	layout := odb.NewLayout(cfg.Warehouses)
	gen := odb.NewGenerator(layout, rng.Split(1))
	gen.StockLevelScan = t.StockLevelScan

	capBlocks := cfg.Machine.BufferCacheMB * (1 << 20) / odb.BlockSize
	bc := buffercache.New(buffercache.Config{Blocks: capBlocks})

	diskCfg := cfg.Machine.Disks
	diskCfg.CyclesPerMS = cfg.Machine.FreqHz / 1e3
	disks := storage.New(diskCfg, eng, rng.Split(2))

	fsb := bus.New(cfg.Machine.Bus, float64(t.Scale))
	geo := workload.ScaledGeometry(cfg.Machine.Geometry, t.Scale)
	domain := cache.NewDomain(geo, cfg.Processors, cfg.Coherent)
	synthCfg := t.Synth
	synthCfg.Scale = t.Scale
	synthCfg.HotSetBytes = t.HotBytesPerWhs * cfg.Warehouses
	synth := workload.New(synthCfg, domain, fsb, rng.Split(3))

	m := &machine{
		cfg:         cfg,
		eng:         eng,
		rng:         rng.Split(4),
		layout:      layout,
		gen:         gen,
		bc:          bc,
		lm:          odb.NewLockManager(),
		disks:       disks,
		fsb:         fsb,
		domain:      domain,
		synth:       synth,
		cyclesPerMS: cfg.Machine.FreqHz / 1e3,
	}
	m.ctr.scale = t.Scale
	m.inflight = make(map[odb.BlockID][]ioWaiter)
	m.sched = osker.New(eng, osker.Config{CPUs: cfg.Processors, QuantumInstr: t.QuantumInstr},
		m.runChunk, m.contextSwitch)

	// The storage engine, constructed last so its RNG splits (5 and 6)
	// come after the historical splits 1–4: the parent stream is never
	// drawn from again, so engine construction leaves every established
	// stream untouched and the B-tree engine stays bit-identical to the
	// pre-boundary system layer.
	fac, ok := engine.Lookup(cfg.Engine)
	if !ok {
		panic("system: unvalidated engine " + cfg.Engine)
	}
	m.se = fac.New(engine.Env{
		Layout:      layout,
		Cache:       bc,
		Disks:       disks,
		Sim:         eng,
		Rand:        rng.Split(5),
		CyclesPerMS: m.cyclesPerMS,
		Tuning: engine.Tuning{
			DBWriterBatch:   t.DBWriterBatch,
			DirtyHighWater:  t.DirtyHighWater,
			DBWriterAgeGets: t.DBWriterAgeGets,
			DBWriterInstr:   t.DBWriterInstr,
			LSM:             t.LSM,
		},
	})
	gen.SetPlanner(m.se.Planner(rng.Split(6)))
	return m
}

// contentionProb returns the probability that a hot-block access finds the
// block busy. Only processes actually on CPU or runnable contend for block
// latches — clients sleeping on disk I/O do not — so the probability uses
// the instantaneous runnable count over the warehouse-scaled hot-block
// population. This produces the paper's Figure 8 shape: severe contention
// when a cached setup concentrates all clients on few blocks, vanishing as
// warehouses grow and clients increasingly wait on I/O instead.
func (m *machine) contentionProb() float64 {
	t := &m.cfg.Tuning
	runnable := float64(m.cfg.Processors + m.sched.ReadyLen())
	hot := t.HotBlocksPerWhs * float64(m.cfg.Warehouses)
	p := t.ContentionAlpha * (runnable - 1) / hot
	if p > t.ContentionCap {
		p = t.ContentionCap
	}
	return p
}

// prefill loads the buffer cache with the blocks a steady-state run keeps
// resident: all of the engine's initial on-disk image when it fits,
// otherwise the most frequently touched blocks of a generator sample,
// ranked by frequency.
func (m *machine) prefill() {
	base, total := m.se.PrefillBlocks()
	capacity := uint64(m.bc.Capacity())
	install := func(b odb.BlockID) {
		e, _ := m.bc.Install(b)
		m.bc.Release(e)
	}
	if total <= capacity {
		for b := uint64(0); b < total; b++ {
			install(base + odb.BlockID(b))
		}
		m.bc.ResetStats()
		return
	}
	sample := odb.NewGenerator(m.layout, xrand.New(m.cfg.Seed).Split(77))
	sample.StockLevelScan = m.cfg.Tuning.StockLevelScan
	// The sampler plans through the engine too (its own planner stream),
	// so the ranked blocks are the ones this engine's op streams touch.
	sample.SetPlanner(m.se.Planner(xrand.New(m.cfg.Seed).Split(78)))
	freq := make(map[odb.BlockID]uint32)
	for i := 0; i < m.cfg.Tuning.PrefillSampleTxns; i++ {
		txn := sample.Next(i % m.cfg.Clients)
		for _, op := range txn.Ops {
			if op.Kind == odb.OpRead || op.Kind == odb.OpWrite {
				freq[op.Block]++
			}
		}
		sample.Recycle(txn)
	}
	type bf struct {
		b odb.BlockID
		f uint32
	}
	ranked := make([]bf, 0, len(freq))
	for b, f := range freq {
		ranked = append(ranked, bf{b, f})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].f != ranked[j].f {
			return ranked[i].f > ranked[j].f
		}
		return ranked[i].b < ranked[j].b
	})
	if uint64(len(ranked)) > capacity {
		ranked = ranked[:capacity]
	}
	// Fill any remaining capacity with unsampled blocks in extent order:
	// classes like customers have near-uniform popularity, so in steady
	// state the cache holds as many of them as fit — which subset does
	// not matter. Install these coldest first, then the ranked blocks,
	// least popular first, so the hottest end at the MRU end.
	if extra := capacity - uint64(len(ranked)); extra > 0 {
		for b := uint64(0); b < total && extra > 0; b++ {
			if _, seen := freq[base+odb.BlockID(b)]; !seen {
				install(base + odb.BlockID(b))
				extra--
			}
		}
	}
	for i := len(ranked) - 1; i >= 0; i-- {
		install(ranked[i].b)
	}
	m.bc.ResetStats()
}

// start admits the server processes and the DB writer. Every process gets
// one prebound wakeup closure reused by all of its wait sites, so
// blocking and unblocking never allocate.
func (m *machine) start() {
	admit := func(id int, sp *serverProc) *osker.Proc {
		p := &osker.Proc{ID: id, Data: sp}
		sp.wake = func() { m.sched.Wake(p) }
		m.procs = append(m.procs, sp)
		m.sched.Admit(p)
		return p
	}
	for i := 0; i < m.cfg.Clients; i++ {
		sp := &serverProc{}
		if m.spans != nil {
			sp.ts = m.spans.NewProcState(i)
		}
		admit(i, sp)
	}
	dbw := admit(m.cfg.Clients, &serverProc{dbWriter: true})
	interval := sim.Time(m.cfg.Tuning.DBWriterIntervalMS * m.cyclesPerMS)
	var tick func()
	tick = func() {
		if dbw.State() == osker.Blocked {
			m.sched.Wake(dbw)
		}
		m.eng.After(interval, tick)
	}
	m.eng.After(interval, tick)
	// The timeline sampler's first tick is queued after the DB writer's,
	// so coinciding ticks keep that order.
	if m.rec != nil {
		m.startFlight()
	}
}

// ctxCheckEvery is how many dispatched events pass between context
// polls in the drive loop — frequent enough that cancellation lands
// within microseconds of wall time, rare enough to stay off the hot
// path.
const ctxCheckEvery = 8192

// drive steps the simulation until the measurement target, the safety
// cap, or a context cancellation is reached.
func (m *machine) drive(ctx context.Context) error {
	capCycles := capSimCycles(m.cfg)
	done := ctx.Done()
	steps := 0
	for m.eng.Step() {
		if m.txns >= uint64(m.cfg.MeasureTxns) && (m.extraDone == nil || m.extraDone()) {
			break
		}
		if m.eng.Now() > capCycles {
			break
		}
		if steps++; steps%ctxCheckEvery == 0 && done != nil {
			select {
			case <-done:
				m.sched.Stop()
				return ctx.Err()
			default:
			}
		}
	}
	m.sched.Stop()
	return nil
}

// isHot reports whether a block op targets contended structures: district
// rows and the append regions of orders, order lines, new-orders and
// history — the block-level hot spots behind the paper's Figure 8 spike
// at small warehouse counts.
func (m *machine) isHot(op *odb.Op) bool {
	if op.Kind != odb.OpWrite {
		return false
	}
	switch m.layout.TableOf(op.Block) {
	case odb.TableWarehouse, odb.TableDistrict, odb.TableOrder,
		odb.TableNewOrder, odb.TableOrderLine, odb.TableHistory:
		return true
	}
	return false
}

// runChunk executes the next chunk of a process: it advances the
// transaction program until a blocking point or the chunk budget, then
// synthesizes the chunk's microarchitectural activity and prices it.
func (m *machine) runChunk(p *osker.Proc, cpuID int, budget uint64) osker.Outcome {
	if m.wantReset && !m.measuring {
		m.reset()
	}
	sp := p.Data.(*serverProc)
	if sp.dbWriter {
		return m.runMaint(p, cpuID)
	}
	t := &m.cfg.Tuning
	ts := sp.ts
	if ts != nil {
		// Classify the gap since the process's last chunk: resource wait
		// up to the scheduler's ready stamp, run-queue wait after it.
		ts.StartChunk(m.eng.Now(), p.ReadyAt())
	}
	if sp.qsSt != nil {
		// Retro-dated completion of the last block's station visit: the
		// wait ran from the blocking chunk's end to the scheduler's ready
		// stamp (a wake that landed inside the chunk reads as zero).
		w := float64(p.ReadyAt() - sp.qsBlockEnd)
		if w < 0 {
			w = 0
		}
		sp.qsSt.Complete(w, 0)
		sp.qsSt = nil
	}

	chunkCap := t.ChunkInstr
	if budget < chunkCap {
		chunkCap = budget
	}
	var userInstr uint64
	// Visit list for pricing: the carried I/O installs plus every block
	// touched this chunk, built in the proc's reusable scratch buffer.
	blocks := append(sp.blocksBuf[:0], sp.carry...)
	sp.carry = sp.carry[:0]
	blocked := false
	if m.prof != nil {
		// Deferred I/O-completion and writer-assist work charged to this
		// process executes in interrupt context, not the transaction.
		m.osShares = addShare(m.osShares, profile.KindKernel, odb.PhaseSyscall, sp.pendingOS)
	}

loop:
	for userInstr < chunkCap {
		if sp.txn == nil {
			sp.txn = m.gen.Next(p.ID)
			sp.opIdx = 0
			sp.startAt = m.eng.Now()
			if ts != nil {
				ts.Begin(sp.txn.Type, m.eng.Now())
			}
			m.chargeOS(sp, odb.PhaseSyscall, t.PerTxnOSInstr)
		}
		op := &sp.txn.Ops[sp.opIdx]
		userInstr += op.Instr
		// The first op's lead-in compute is the parse/plan work of the
		// statement; later ops carry their builder-assigned phase.
		ph := op.Phase
		if sp.opIdx == 0 {
			ph = odb.PhaseParse
		}
		if m.prof != nil {
			m.userShares = addShare(m.userShares, profile.KindOf(sp.txn.Type), ph, op.Instr)
		}
		if ts != nil {
			ts.AddInstr(ph, op.Instr)
		}
		switch op.Kind {
		case odb.OpRead, odb.OpWrite:
			write := op.Kind == odb.OpWrite
			if m.measuring && !write {
				m.fgReads++
			}
			if e := m.bc.Lookup(op.Block); e != nil {
				if write {
					m.bc.MarkDirty(e)
				}
				m.bc.Release(e)
				blocks = append(blocks, op.Block)
				if m.isHot(op) && m.rng.Bernoulli(m.contentionProb()) {
					// Buffer busy wait: another process holds the block.
					if m.measuring {
						m.busyWaits++
					}
					sp.opIdx++
					wait := sim.Time(m.rng.Exp(t.BusyWaitMS) * m.cyclesPerMS)
					m.eng.After(wait, sp.wake)
					m.block(sp, txtrace.KindBusyWait, 0, m.qsBusy)
					blocked = true
					break loop
				}
			} else {
				// Buffer cache miss: join or start a disk read, and sleep.
				sp.opIdx++
				block := op.Block
				waiters, pending := m.inflight[block]
				if !pending {
					if n := len(m.waiterPool); n > 0 {
						waiters = m.waiterPool[n-1]
						m.waiterPool = m.waiterPool[:n-1]
					}
				}
				m.inflight[block] = append(waiters, ioWaiter{proc: p, sp: sp, write: write})
				if !pending {
					m.chargeOS(sp, odb.PhaseSyscall, t.IOIssueInstr)
					m.disks.Read(uint64(block), func() { m.readDone(block) })
				} else {
					m.chargeOS(sp, odb.PhaseSyscall, 2000) // buffer-wait path; the read is in flight
				}
				// Disk reads are counted by the disk array's own station.
				m.block(sp, txtrace.KindIOWait, 0, nil)
				blocked = true
				break loop
			}
		case odb.OpMemWrite:
			// Engine in-memory write path (LSM memtable append). A
			// non-zero return is a writer throttle: the append is
			// admitted — the op is complete — but the writer sleeps.
			if stall := m.se.MemWrite(op.Bytes); stall > 0 {
				sp.opIdx++
				m.eng.After(stall, sp.wake)
				m.block(sp, txtrace.KindBusyWait, 0, m.qsEngine)
				blocked = true
				break loop
			}
		case odb.OpLock:
			if !m.lm.Acquire(op.Res, p.ID, sp.wake) {
				sp.opIdx++
				m.chargeOS(sp, odb.PhaseLock, 2000) // semaphore sleep path
				m.block(sp, txtrace.KindLockWait, uint8(op.Res.Class), m.qsLock)
				blocked = true
				break loop
			}
		case odb.OpUnlock:
			m.lm.Release(op.Res, p.ID)
		case odb.OpLog:
			kb := (op.Bytes + 1023) / 1024
			m.chargeOS(sp, odb.PhaseLogCommit, t.LogInstrPerKB*uint64(kb))
			m.disks.LogWrite(1, nil)
			if m.measuring {
				m.logBytes += float64(op.Bytes)
			}
		case odb.OpCommit:
			m.commit(sp)
			continue loop // opIdx already reset; skip the increment
		}
		sp.opIdx++
	}

	osInstr := sp.pendingOS
	sp.pendingOS = 0
	cycles := m.price(cpuID, p.ID, userInstr, osInstr, blocks, m.userShares, m.osShares)
	sp.blocksBuf = blocks[:0] // price consumed the list synchronously
	// The shares are per chunk; truncate whether or not they flushed (the
	// warm-up period collects and discards).
	m.userShares = m.userShares[:0]
	m.osShares = m.osShares[:0]
	if ts != nil {
		ts.EndChunk(m.eng.Now(), cycles, userInstr+osInstr)
	}
	if sp.qsSt != nil {
		sp.qsBlockEnd = m.eng.Now() + cycles
	}
	return osker.Outcome{Cycles: cycles, Instr: userInstr + osInstr, Block: blocked}
}

// chargeOS bills n OS instructions of engine phase ph, executed on
// behalf of the process's transaction, to the running chunk: its OS
// total, the profiler's share list and the span tracer's phase clock.
func (m *machine) chargeOS(sp *serverProc, ph odb.Phase, n uint64) {
	sp.pendingOS += n
	if m.prof != nil {
		m.osShares = addShare(m.osShares, profile.KindOf(sp.txn.Type), ph, n)
	}
	if sp.ts != nil {
		sp.ts.AddInstr(ph, n)
	}
}

// block marks the process's running chunk as ending in a wait of the
// given kind (lock class for lock waits): the span tracer classifies the
// gap before its next chunk as that wait, and a non-nil delay-center
// station records the arrival, completed at the next chunk start.
func (m *machine) block(sp *serverProc, kind txtrace.Kind, class uint8, st *qstats.Station) {
	if sp.ts != nil {
		sp.ts.SetBlock(kind, class)
	}
	if st != nil {
		st.Arrive()
		sp.qsSt = st
	}
}

// readDone installs a completed disk read and wakes every waiter.
func (m *machine) readDone(block odb.BlockID) {
	t := &m.cfg.Tuning
	waiters := m.inflight[block]
	delete(m.inflight, block)
	e, ev := m.bc.Install(block)
	for _, w := range waiters {
		if w.write {
			m.bc.MarkDirty(e)
		}
	}
	m.bc.Release(e)
	if ev.Valid && ev.Dirty {
		m.disks.Write(uint64(ev.ID))
		m.evictWrite()
		if len(waiters) > 0 {
			waiters[0].sp.pendingOS += t.DBWriterInstr
		}
	}
	m.fsb.Posted(m.eng.Now(), float64(odb.BlockSize)/64) // DMA into the SGA
	for _, w := range waiters {
		w.sp.pendingOS += t.IOCompleteInstr
		w.sp.carry = append(w.sp.carry, block)
		m.sched.Wake(w.proc)
	}
	if cap(waiters) > 0 {
		m.waiterPool = append(m.waiterPool, waiters[:0])
	}
}

// runMaint executes one maintenance-process activation: the engine does
// its background work (DB-writer batch cleaning, memtable flushes,
// compaction) as simulated disk traffic and hands back the OS
// instruction bill, the profiler phase, and the visited blocks for
// pricing.
func (m *machine) runMaint(p *osker.Proc, cpuID int) osker.Outcome {
	res := m.se.Maintain(m.dbwScratch[:0])
	if res.Blocks != nil {
		m.dbwScratch = res.Blocks
	}
	share := [1]profile.Share{{Kind: profile.KindDBWriter, Phase: res.Phase, Instr: res.OSInstr}}
	cycles := m.price(cpuID, p.ID, 0, res.OSInstr, res.Blocks, nil, share[:])
	return osker.Outcome{Cycles: cycles, Instr: res.OSInstr, Block: true}
}

// evictWrite counts a foreground dirty-eviction write.
func (m *machine) evictWrite() {
	if m.measuring {
		m.evictWr++
	}
}

// commit completes the process's transaction: it closes the flight
// recorder's and the span tracer's latency windows, counts the commit,
// arms the measurement reset at the end of warm-up, and recycles the
// transaction.
func (m *machine) commit(sp *serverProc) {
	// Latency at chunk granularity: both endpoints are chunk start times,
	// so the commit chunk's own cycles are excluded symmetrically with the
	// generating chunk's.
	if m.rec != nil {
		us := float64(m.eng.Now()-sp.startAt) * 1e3 / m.cyclesPerMS
		m.rec.ObserveSpan(sp.txn.Type.String(), uint64(us))
		m.rec.NoteCommit(m.measuring)
	}
	if sp.ts != nil {
		m.spans.End(sp.ts, m.eng.Now(), m.measuring)
	}
	m.totalTxns++
	if m.measuring {
		m.txns++
	} else if m.totalTxns >= uint64(m.cfg.WarmupTxns) {
		m.wantReset = true
	}
	m.gen.Recycle(sp.txn)
	sp.txn = nil
	sp.opIdx = 0
}

// reset starts the measurement period: every component's statistics are
// zeroed while all state (caches, buffer pool, queues) is preserved.
func (m *machine) reset() {
	m.measuring = true
	m.resetAt = m.eng.Now()
	// Observer hooks run before the components reset: osker's ResetStats
	// re-arrives mid-episode processes into the queueing stations, which
	// must already be fresh.
	for _, h := range m.atReset {
		h()
	}
	m.bc.ResetStats()
	m.disks.ResetStats()
	m.fsb.ResetStats(m.eng.Now())
	m.sched.ResetStats()
	m.lm.ResetStats()
	m.se.ResetStats()
}

// price synthesizes the chunk's reference activity and converts the event
// counts into cycles using the Table 3/4 stall model. The profiler, when
// attached, apportions the user and OS cycles over the caller's shares.
func (m *machine) price(cpuID, procID int, userInstr, osInstr uint64, blocks []odb.BlockID, userShares, osShares []profile.Share) sim.Time {
	now := m.eng.Now()
	var userCycles, osCycles float64
	if userInstr > 0 {
		ev := m.synth.Run(workload.ChunkSpec{Now: now, CPU: cpuID, ProcID: procID, Instr: userInstr, Blocks: blocks})
		userCycles = m.eventCycles(userInstr, ev.Events)
		m.ctr.note(userInstr, userCycles, ev.Events)
		if m.measuring {
			m.user.add(userInstr, userCycles, ev.Events)
			if m.prof != nil {
				m.prof.AddChunk(profile.User, userShares, userInstr, userCycles, ev.Events)
			}
		}
	}
	if osInstr > 0 {
		ev := m.synth.Run(workload.ChunkSpec{Now: now, CPU: cpuID, ProcID: procID, OS: true, Instr: osInstr, Blocks: blocks})
		osCycles = m.eventCycles(osInstr, ev.Events)
		m.ctr.note(osInstr, osCycles, ev.Events)
		m.ctr.osInstr += osInstr
		if m.measuring {
			m.os.add(osInstr, osCycles, ev.Events)
			if m.prof != nil {
				m.prof.AddChunk(profile.OS, osShares, osInstr, osCycles, ev.Events)
			}
		}
	}
	return sim.Time(userCycles + osCycles)
}

// eventCycles applies the stall-cost model to one chunk's scaled events.
func (m *machine) eventCycles(instr uint64, ev cpu.Events) float64 {
	c := m.cfg.Machine.Stall
	s := float64(m.cfg.Tuning.Scale)
	l2NotL3 := float64(0)
	if ev.L2Miss > ev.L3Miss {
		l2NotL3 = float64(ev.L2Miss - ev.L3Miss)
	}
	stalls := s * (float64(ev.Mispred)*c.BranchMispred +
		float64(ev.TLBMiss)*c.TLBMiss +
		float64(ev.TCMiss)*c.TCMiss +
		l2NotL3*c.L2Miss +
		float64(ev.L3Miss)*(c.L3Miss-c.BusTime1P) + ev.BusLatency)
	return float64(instr)*(c.InstBase+m.cfg.Tuning.OtherCPI) + stalls
}

// contextSwitch prices the OS switch path and flushes the TLB.
func (m *machine) contextSwitch(p *osker.Proc, cpuID int) sim.Time {
	m.synth.FlushTLB(cpuID)
	n := m.cfg.Tuning.CtxSwitchInstr
	share := [1]profile.Share{{Kind: profile.KindKernel, Phase: odb.PhaseSched, Instr: n}}
	return m.price(cpuID, p.ID, 0, n, nil, nil, share[:])
}

// metrics assembles the final measurements.
func (m *machine) metrics() Metrics {
	cfg := m.cfg
	t := &cfg.Tuning
	out := Metrics{Warehouses: cfg.Warehouses, Clients: cfg.Clients, Processors: cfg.Processors}
	out.Txns = m.txns
	elapsed := float64(m.eng.Now() - m.resetAt)
	out.ElapsedSeconds = elapsed / cfg.Machine.FreqHz
	if m.txns == 0 || elapsed <= 0 {
		return out
	}
	txns := float64(m.txns)
	out.TPS = txns / out.ElapsedSeconds

	totalInstr := m.user.instr + m.os.instr
	totalCycles := m.user.cycles + m.os.cycles
	out.IPX = float64(totalInstr) / txns
	out.UserIPX = float64(m.user.instr) / txns
	out.OSIPX = float64(m.os.instr) / txns
	if totalInstr > 0 {
		out.CPI = totalCycles / float64(totalInstr)
	}
	out.UserCPI = m.user.cpi()
	out.OSCPI = m.os.cpi()

	scale := t.Scale
	combined := modeAccum{instr: totalInstr, ev: m.user.ev}
	combined.ev.Add(m.os.ev)

	out.MPI = combined.ratePI(combined.ev.L3Miss, scale)
	out.UserMPI = m.user.ratePI(m.user.ev.L3Miss, scale)
	out.OSMPI = m.os.ratePI(m.os.ev.L3Miss, scale)

	busStats := m.fsb.StatsAt(m.eng.Now())
	out.BusTime = busStats.MeanLatency()
	out.BusUtil = busStats.Utilization()

	out.Rates = cpu.EventRates{
		BranchMispredPI: combined.ratePI(combined.ev.Mispred, scale),
		TLBMissPI:       combined.ratePI(combined.ev.TLBMiss, scale),
		TCMissPI:        combined.ratePI(combined.ev.TCMiss, scale),
		L2MissPI:        combined.ratePI(combined.ev.L2Miss, scale),
		L3MissPI:        out.MPI,
		BusTime:         out.BusTime,
		OtherPI:         t.OtherCPI,
	}
	out.Breakdown = cpu.Assemble(cfg.Machine.Stall, out.Rates)

	out.CPUUtil = m.sched.Utilization()
	if totalCycles > 0 {
		out.OSShare = m.os.cycles / totalCycles
	}

	ds := m.disks.StatsNow()
	out.ReadKBPerTxn = float64(ds.Reads) * odb.BlockSizeKB / txns
	out.WriteKBPerTxn = float64(ds.Writes) * odb.BlockSizeKB / txns
	out.LogKBPerTxn = m.logBytes / 1024 / txns
	out.DiskUtil = ds.Utilization(m.disks.DataDisks())
	out.ReadLatencyMS = ds.MeanReadLatency() / m.cyclesPerMS

	out.CtxSwitchPerTxn = float64(m.sched.Stats().ContextSwitches) / txns
	out.BlocksPerTxn = float64(m.sched.Stats().Blocks) / txns
	out.BusyWaitsPerTxn = float64(m.busyWaits) / txns
	if combined.ev.L3Miss > 0 {
		out.CoherenceShare = float64(combined.ev.CoherMiss) / float64(combined.ev.L3Miss)
	}
	out.BufferHitRatio = m.bc.Stats().HitRatio()
	out.LockConflicts = float64(m.lm.Stats().Conflicts) / txns

	// Per-engine amplification: physical write volume includes the
	// system layer's foreground dirty evictions, read volume is the
	// executed foreground block reads over the rows the workload asked
	// for, space is the instantaneous on-disk footprint over live data.
	out.Engine = m.se.Name()
	ec := m.se.Counters()
	if ec.LogicalWriteBytes > 0 {
		physW := float64(ec.PhysicalWriteBytes) + float64(m.evictWr)*odb.BlockSize
		out.WriteAmp = physW / float64(ec.LogicalWriteBytes)
	}
	if ec.LogicalReads > 0 {
		out.ReadAmp = float64(m.fgReads) / float64(ec.LogicalReads)
	}
	out.SpaceAmp = ec.SpaceAmp()
	out.WriteStallsPerTxn = float64(ec.WriteStalls) / txns
	return out
}

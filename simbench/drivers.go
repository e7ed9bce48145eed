package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"odbscale/internal/buffercache"
	"odbscale/internal/bus"
	"odbscale/internal/cache"
	"odbscale/internal/cpu"
	"odbscale/internal/engine"
	"odbscale/internal/odb"
	"odbscale/internal/sim"
	"odbscale/internal/storage"
	"odbscale/internal/system"
	"odbscale/internal/trace"
	"odbscale/internal/workload"
	"odbscale/internal/xrand"
)

// profileHz is the CPU sampling rate asked of the traced runs, ten times
// runtime/pprof's default. The kernel's timer tick may cap it (at about
// 250 Hz per thread on the reference host).
const profileHz = 1000

// tracedShare is the part of the time budget spent on the paired
// untraced/traced full runs; the layer drivers run a fixed amount of
// work after it.
const tracedShare = 0.75

// Sizes of the layer drivers' inputs, fixed so every run does the same
// work.
const (
	captureTxns = 300     // measured transactions of the captured reference stream
	streamTxns  = 1500    // generated transactions feeding the odb, buffercache and engine drivers
	synthChunks = 400     // chunks synthesized per workload-driver repetition
	branchRecs  = 400_000 // branch records per repetition
	zipfDraws   = 60_000  // draws per Zipf shape per repetition
	simEvents   = 400_000 // dispatched events per sim-driver repetition
	maintEvery  = 32      // generated transactions between engine Maintain activations
	maintPasses = 16      // passes over the stream per engine-driver repetition: enough lsm writes to flush and compact
	driverReps  = 5       // repetitions of the cheap drivers; the median is reported
	heavyReps   = 3       // repetitions of drivers that rebuild a full buffer cache
)

// perLayer measures the per-layer metrics: a profiled run attributing
// host time to layers, and drivers timing each layer's public calls on
// inputs derived from the workload's configuration and seed. Every ns
// metric is scaled to the reference host, as the end-to-end ones are.
func perLayer(ctx context.Context, wl workloadSpec, seed int64, budget time.Duration, c *checker) (map[string]metric, error) {
	cfg := wl.config(seed)
	out := map[string]metric{}
	clk := &refClock{}

	if err := tracedRuns(ctx, cfg, time.Duration(float64(budget)*tracedShare), c, clk, out); err != nil {
		return nil, err
	}

	clk.sample()
	refs, err := captureRefs(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out["cache.refs_per_txn"] = metric{float64(refs.count) / captureTxns, "count"}
	if err := cacheDriver(cfg, refs, out); err != nil {
		return nil, err
	}
	tlbDriver(refs, out)
	branchDriver(seed, out)
	zipfDriver(cfg, out)

	clk.sample()
	stream, err := generateStream(cfg)
	if err != nil {
		return nil, err
	}
	synthDriver(cfg, stream, out)
	genDriver(cfg, out)
	if err := lockDriver(stream, out); err != nil {
		return nil, err
	}
	bufferDriver(cfg, stream, out)
	engineDriver(cfg, stream, out)
	if err := simDriver(out); err != nil {
		return nil, err
	}
	clk.sample()
	scale := clk.scale()
	for name, m := range out {
		if m.Unit == "ns" {
			out[name] = metric{m.Value * scale, m.Unit}
		}
	}
	return out, nil
}

// tracedRuns alternates untraced and CPU-profiled full runs for the
// budget, then reports the layer rows of the merged profile, the tracing
// overhead, and the untraced runs' allocation rates.
func tracedRuns(ctx context.Context, cfg system.Config, budget time.Duration, c *checker, clk *refClock, out map[string]metric) error {
	txns := float64(cfg.WarmupTxns + cfg.MeasureTxns)
	var plain, traced, allocB, mallocs []float64
	prof := &cpuProfile{}
	start := time.Now()
	for len(traced) < minRuns || time.Since(start) < budget {
		debug.FreeOSMemory()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ns := clk.around(func() time.Duration {
			dt, _ := c.run(ctx, cfg)
			return dt
		})
		runtime.ReadMemStats(&after)
		plain = append(plain, ns/txns)
		allocB = append(allocB, float64(after.TotalAlloc-before.TotalAlloc)/txns)
		mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs)/txns)

		debug.FreeOSMemory()
		var buf bytes.Buffer
		var profErr error
		ns = clk.around(func() time.Duration {
			// Raising the rate first makes StartCPUProfile keep it; the
			// runtime notes on stderr that the rate was already set.
			runtime.SetCPUProfileRate(profileHz)
			if profErr = pprof.StartCPUProfile(&buf); profErr != nil {
				return 0
			}
			dt, _ := c.run(ctx, cfg)
			pprof.StopCPUProfile()
			return dt
		})
		if profErr != nil {
			return fmt.Errorf("start profile: %w", profErr)
		}
		traced = append(traced, ns/txns)
		p, err := parseProfile(buf.Bytes())
		if err != nil {
			return err
		}
		prof.merge(p)
	}
	tracedNs := median(traced)
	for row, ns := range layerRows(prof, tracedNs) {
		out[row] = metric{ns, "ns"}
	}
	out["trace.ns_per_txn"] = metric{tracedNs, "ns"}
	out["trace.overhead"] = metric{tracedNs/median(plain) - 1, "ratio"}
	out["trace.samples"] = metric{float64(len(prof.values)), "count"}
	out["gort.alloc_bytes_per_txn"] = metric{median(allocB), "B"}
	out["gort.mallocs_per_txn"] = metric{median(mallocs), "count"}
	return nil
}

// layerRows turns a profile into the "<layer>.ns_per_txn" rows: each
// layer's share of the sampled CPU time times the traced ns/txn, so the
// rows sum to the traced total.
func layerRows(prof *cpuProfile, tracedNs float64) map[string]float64 {
	rows := map[string]float64{}
	shares := prof.attribute()
	for _, layer := range layerNames() {
		rows[layer+".ns_per_txn"] = shares[layer] * tracedNs
	}
	return rows
}

// repeat runs rep n times and returns the median of the durations it
// reports; each rep builds its own state and times only the layer calls.
func repeat(n int, rep func() time.Duration) float64 {
	ns := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		ns = append(ns, float64(rep().Nanoseconds()))
	}
	return median(ns)
}

// refStream is a reference stream captured from the workload with
// system.WithTrace.
type refStream struct {
	raw   []byte // trace-format bytes
	count uint64
	recs  []trace.Record
}

func captureRefs(ctx context.Context, cfg system.Config) (*refStream, error) {
	cfg.MeasureTxns = captureTxns
	var buf bytes.Buffer
	s := &refStream{}
	if _, err := system.Run(ctx, cfg, system.WithTrace(&buf, &s.count)); err != nil {
		return nil, fmt.Errorf("capture reference stream: %w", err)
	}
	s.raw = buf.Bytes()
	recs, err := decodeRefs(s.raw)
	if err != nil {
		return nil, err
	}
	if uint64(len(recs)) != s.count || s.count == 0 {
		return nil, fmt.Errorf("capture reference stream: %d records decoded, %d written", len(recs), s.count)
	}
	s.recs = recs
	return s, nil
}

func decodeRefs(raw []byte) ([]trace.Record, error) {
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	var recs []trace.Record
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

// cacheDriver replays the stream through trace.Replay into a fresh
// coherence domain of the workload's scaled geometry.
func cacheDriver(cfg system.Config, refs *refStream, out map[string]metric) error {
	geo := workload.ScaledGeometry(cfg.Machine.Geometry, cfg.Tuning.Scale)
	var stats trace.ReplayStats
	var replayErr error
	ns := repeat(driverReps, func() time.Duration {
		d := cache.NewDomain(geo, cfg.Processors, cfg.Coherent)
		r, err := trace.NewReader(bytes.NewReader(refs.raw))
		if err != nil {
			replayErr = err
			return 0
		}
		start := time.Now()
		stats, err = trace.Replay(r, d)
		elapsed := time.Since(start)
		if err != nil {
			replayErr = err
		}
		return elapsed
	})
	if replayErr != nil {
		return fmt.Errorf("cache driver: %w", replayErr)
	}
	if stats.Refs != refs.count {
		return fmt.Errorf("cache driver: replayed %d of %d references", stats.Refs, refs.count)
	}
	out["cache.ns_per_access"] = metric{ns / float64(stats.Refs), "ns"}
	out["cache.l3_miss_ratio"] = metric{stats.L3MissRatio(), "ratio"}
	return nil
}

// tlbDriver sends the stream's load and store addresses through one TLB
// per CPU, as the synthesizer does.
func tlbDriver(refs *refStream, out map[string]metric) {
	var n int
	for _, rec := range refs.recs {
		if rec.Kind != cache.Fetch {
			n++
		}
	}
	ns := repeat(driverReps, func() time.Duration {
		var tlbs [256]*cpu.TLB
		for _, rec := range refs.recs {
			if tlbs[rec.CPU] == nil {
				tlbs[rec.CPU] = cpu.NewTLB(64, 4, 64)
			}
		}
		start := time.Now()
		for _, rec := range refs.recs {
			if rec.Kind != cache.Fetch {
				tlbs[rec.CPU].Access(rec.Addr)
			}
		}
		return time.Since(start)
	})
	out["cpu.tlb_ns_per_access"] = metric{ns / float64(n), "ns"}
}

// branchDriver records a Zipf(1.05, 512) branch-site stream, the
// synthesizer's shape, with strongly biased outcomes per site.
func branchDriver(seed int64, out map[string]metric) {
	rng := xrand.New(seed)
	z := xrand.NewZipf(rng.Split(6), 1.05, 512)
	sites := make([]uint64, branchRecs)
	taken := make([]bool, branchRecs)
	for i := range sites {
		sites[i] = z.Next()
		bias := 0.97
		switch {
		case sites[i]%16 == 0:
			bias = 0.6 // a minority of hard, weakly biased sites
		case sites[i]%2 == 1:
			bias = 0.03
		}
		taken[i] = rng.Float64() < bias
	}
	ns := repeat(driverReps, func() time.Duration {
		bp := cpu.NewBranchPredictor(13, 2)
		start := time.Now()
		for i, s := range sites {
			bp.Record(s, taken[i])
		}
		return time.Since(start)
	})
	out["cpu.branch_ns_per_record"] = metric{ns / branchRecs, "ns"}
}

// synthConfig is the synthesizer configuration system.Run derives.
func synthConfig(cfg system.Config) workload.Config {
	sc := cfg.Tuning.Synth
	sc.Scale = cfg.Tuning.Scale
	sc.HotSetBytes = cfg.Tuning.HotBytesPerWhs * cfg.Warehouses
	sc.LogicalCPUs = cfg.Processors
	return sc
}

// zipfDriver draws from the synthesizer's seven (theta, n) shapes for the
// workload's geometry, round-robin.
func zipfDriver(cfg system.Config, out map[string]metric) {
	sc := synthConfig(cfg)
	lines := func(bytes int) uint64 {
		l := uint64(bytes) / 64 / sc.Scale
		if l < 2 {
			l = 2
		}
		return l
	}
	shapes := []struct {
		theta float64
		n     uint64
	}{
		{1.6, lines(sc.UserCodeBytes)}, {1.6, lines(sc.OSCodeBytes)}, {1.7, lines(sc.MetaBytes)},
		{1.6, lines(sc.KernelBytes)}, {1.3, lines(sc.PGABytes)}, {1.05, 512}, {1.0, lines(sc.HotSetBytes)},
	}
	rng := xrand.New(cfg.Seed)
	zs := make([]*xrand.Zipf, len(shapes))
	for i, s := range shapes {
		zs[i] = xrand.NewZipf(rng.Split(uint64(i+1)), s.theta, s.n)
	}
	ns := repeat(driverReps, func() time.Duration {
		var sum uint64
		start := time.Now()
		for i := 0; i < zipfDraws; i++ {
			for _, z := range zs {
				sum += z.Next()
			}
		}
		elapsed := time.Since(start)
		refSink += sum // keeps the draws live
		return elapsed
	})
	out["xrand.ns_per_zipf"] = metric{ns / float64(zipfDraws*len(zs)), "ns"}
}

// newEnv builds the engine environment system.Run builds for cfg: layout,
// buffer cache, disk array and event engine, with an engine instance.
func newEnv(cfg system.Config) (engine.Env, engine.Instance) {
	eng := sim.New()
	rng := xrand.New(cfg.Seed)
	diskCfg := cfg.Machine.Disks
	diskCfg.CyclesPerMS = cfg.Machine.FreqHz / 1e3
	t := cfg.Tuning
	env := engine.Env{
		Layout:      odb.NewLayout(cfg.Warehouses),
		Cache:       buffercache.New(buffercache.Config{Blocks: capacityBlocks(cfg)}),
		Disks:       storage.New(diskCfg, eng, rng.Split(2)),
		Sim:         eng,
		Rand:        rng.Split(5),
		CyclesPerMS: cfg.Machine.FreqHz / 1e3,
		Tuning: engine.Tuning{
			DBWriterBatch:   t.DBWriterBatch,
			DirtyHighWater:  t.DirtyHighWater,
			DBWriterAgeGets: t.DBWriterAgeGets,
			DBWriterInstr:   t.DBWriterInstr,
			LSM:             t.LSM,
		},
	}
	fac, _ := engine.Lookup(cfg.Engine) // the workload names a registered engine
	return env, fac.New(env)
}

func capacityBlocks(cfg system.Config) int {
	return cfg.Machine.BufferCacheMB * (1 << 20) / odb.BlockSize
}

// newGenerator builds the transaction generator with the engine's planner.
func newGenerator(cfg system.Config, env engine.Env, inst engine.Instance) *odb.Generator {
	rng := xrand.New(cfg.Seed)
	gen := odb.NewGenerator(env.Layout, rng.Split(1))
	gen.StockLevelScan = cfg.Tuning.StockLevelScan
	gen.SetPlanner(inst.Planner(rng.Split(6)))
	return gen
}

// generateStream generates streamTxns transactions and keeps copies of
// their op lists.
func generateStream(cfg system.Config) ([][]odb.Op, error) {
	env, inst := newEnv(cfg)
	gen := newGenerator(cfg, env, inst)
	stream := make([][]odb.Op, streamTxns)
	for i := range stream {
		txn := gen.Next(i % cfg.Clients)
		if len(txn.Ops) == 0 {
			return nil, errors.New("generator produced an empty transaction")
		}
		stream[i] = append([]odb.Op(nil), txn.Ops...)
		gen.Recycle(txn)
	}
	return stream, nil
}

// blocksOf lists the blocks a transaction reads or writes.
func blocksOf(ops []odb.Op) []odb.BlockID {
	var out []odb.BlockID
	for _, op := range ops {
		if op.Kind == odb.OpRead || op.Kind == odb.OpWrite {
			out = append(out, op.Block)
		}
	}
	return out
}

// synthDriver runs the synthesizer over a fixed chunk sequence: chunks of
// ChunkInstr instructions, alternating user and OS, round-robin over the
// processors, with block lists from the generated transactions.
func synthDriver(cfg system.Config, stream [][]odb.Op, out map[string]metric) {
	t := cfg.Tuning
	geo := workload.ScaledGeometry(cfg.Machine.Geometry, t.Scale)
	specs := make([]workload.ChunkSpec, synthChunks)
	var instr uint64
	for i := range specs {
		specs[i] = workload.ChunkSpec{
			Now:    sim.Time(uint64(i) * 3 * t.ChunkInstr),
			CPU:    i % cfg.Processors,
			ProcID: (i / 2) % cfg.Clients,
			OS:     i%2 == 1,
			Instr:  t.ChunkInstr,
			Blocks: blocksOf(stream[(i/2)%len(stream)]),
		}
		instr += t.ChunkInstr
	}
	ns := repeat(driverReps, func() time.Duration {
		domain := cache.NewDomain(geo, cfg.Processors, cfg.Coherent)
		fsb := bus.New(cfg.Machine.Bus, float64(t.Scale))
		s := workload.New(synthConfig(cfg), domain, fsb, xrand.New(cfg.Seed).Split(3))
		start := time.Now()
		for _, spec := range specs {
			s.Run(spec)
		}
		return time.Since(start)
	})
	out["workload.ns_per_kinstr"] = metric{ns / (float64(instr) / 1000), "ns"}
}

// genDriver times Generator.Next and Recycle with the engine's planner.
func genDriver(cfg system.Config, out map[string]metric) {
	env, inst := newEnv(cfg)
	ns := repeat(driverReps, func() time.Duration {
		gen := newGenerator(cfg, env, inst)
		start := time.Now()
		for i := 0; i < streamTxns; i++ {
			gen.Recycle(gen.Next(i % cfg.Clients))
		}
		return time.Since(start)
	})
	out["odb.ns_per_txn_gen"] = metric{ns / streamTxns, "ns"}
}

// lockDriver replays the generated transactions' lock and unlock ops
// through a lock manager, each transaction under its client's owner id.
func lockDriver(stream [][]odb.Op, out map[string]metric) error {
	var n int
	for _, ops := range stream {
		for _, op := range ops {
			if op.Kind == odb.OpLock || op.Kind == odb.OpUnlock {
				n++
			}
		}
	}
	if n == 0 {
		return errors.New("lock driver: no lock ops generated")
	}
	grant := func() {}
	conflicts := false
	ns := repeat(driverReps, func() time.Duration {
		lm := odb.NewLockManager()
		start := time.Now()
		for owner, ops := range stream {
			for _, op := range ops {
				switch op.Kind {
				case odb.OpLock:
					if !lm.Acquire(op.Res, owner, grant) {
						conflicts = true
					}
				case odb.OpUnlock:
					lm.Release(op.Res, owner)
				}
			}
		}
		return time.Since(start)
	})
	if conflicts {
		return errors.New("lock driver: a sequential replay conflicted")
	}
	out["odb.lock_ns_per_op"] = metric{ns / float64(n), "ns"}
	return nil
}

// getBlock is the system layer's buffer-cache access: a lookup, an
// install on a miss, the dirty mark of a write, and the release.
func getBlock(bc *buffercache.Cache, b odb.BlockID, write bool) {
	e := bc.Lookup(b)
	if e == nil {
		e, _ = bc.Install(b)
	}
	if write {
		bc.MarkDirty(e)
	}
	bc.Release(e)
}

// bufferDriver sends the generated read/write block stream through a
// buffer cache of the workload's capacity, prefilled in extent order.
func bufferDriver(cfg system.Config, stream [][]odb.Op, out map[string]metric) {
	_, inst := newEnv(cfg)
	base, total := inst.PrefillBlocks()
	capacity := capacityBlocks(cfg)
	if total > uint64(capacity) {
		total = uint64(capacity)
	}
	var gets int
	var hit float64
	ns := repeat(heavyReps, func() time.Duration {
		bc := buffercache.New(buffercache.Config{Blocks: capacity})
		for b := uint64(0); b < total; b++ {
			e, _ := bc.Install(base + odb.BlockID(b))
			bc.Release(e)
		}
		bc.ResetStats()
		gets = 0
		start := time.Now()
		for _, ops := range stream {
			for _, op := range ops {
				if op.Kind == odb.OpRead || op.Kind == odb.OpWrite {
					getBlock(bc, op.Block, op.Kind == odb.OpWrite)
					gets++
				}
			}
		}
		elapsed := time.Since(start)
		hit = bc.Stats().HitRatio()
		return elapsed
	})
	out["buffercache.ns_per_lookup"] = metric{ns / float64(gets), "ns"}
	out["buffercache.hit_ratio"] = metric{hit, "ratio"}
}

// engineDriver feeds the generated writes to a fresh engine instance
// (memtable appends for lsm, dirty blocks for btree), maintPasses times
// over, and times a Maintain activation every maintEvery transactions,
// stepping the event engine through one DB-writer interval after each so
// disk completions land.
func engineDriver(cfg system.Config, stream [][]odb.Op, out map[string]metric) {
	interval := sim.Time(cfg.Tuning.DBWriterIntervalMS * cfg.Machine.FreqHz / 1e3)
	calls := 0
	ns := repeat(heavyReps, func() time.Duration {
		env, inst := newEnv(cfg)
		var scratch []odb.BlockID
		var busy time.Duration
		calls = 0
		for i := 0; i < maintPasses*len(stream); i++ {
			for _, op := range stream[i%len(stream)] {
				switch op.Kind {
				case odb.OpMemWrite:
					inst.MemWrite(op.Bytes)
				case odb.OpRead, odb.OpWrite:
					getBlock(env.Cache, op.Block, op.Kind == odb.OpWrite)
				}
			}
			if (i+1)%maintEvery == 0 {
				start := time.Now()
				res := inst.Maintain(scratch[:0])
				busy += time.Since(start)
				if res.Blocks != nil {
					scratch = res.Blocks
				}
				calls++
				env.Sim.RunUntil(env.Sim.Now() + interval)
			}
		}
		return busy
	})
	out["engine.ns_per_maintain"] = metric{ns / float64(calls), "ns"}
}

// simDriver times the event core alone: a self-rescheduling event chain
// with interleaved cancels, the schedule/dispatch/cancel pattern the
// machine model produces.
func simDriver(out map[string]metric) error {
	dispatched := 0
	ns := repeat(driverReps, func() time.Duration {
		eng := sim.New()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < simEvents {
				eng.After(3, tick)
				if n%4 == 0 {
					eng.After(10, func() {}).Cancel()
				}
			}
		}
		eng.After(1, tick)
		start := time.Now()
		for eng.Step() {
		}
		elapsed := time.Since(start)
		dispatched = n
		return elapsed
	})
	if dispatched != simEvents {
		return fmt.Errorf("sim driver: dispatched %d of %d events", dispatched, simEvents)
	}
	out["sim.ns_per_event"] = metric{ns / simEvents, "ns"}
	return nil
}

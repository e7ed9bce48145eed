// Package lsm is a log-structured merge engine behind the
// StorageEngine boundary: writes append to an in-memory memtable (no
// in-place page updates, no index descents), sealed memtables flush to
// L0 runs, and leveled compaction merges runs down a geometric level
// hierarchy as background disk traffic. The model captures the three
// signatures that distinguish an LSM from the paper's B-tree engine:
//
//   - write amplification: every logical byte is rewritten once per
//     level it migrates through, so physical write volume is a multiple
//     of the logical volume that grows with the level count;
//   - read amplification: a point read may probe several sorted runs
//     (bloom-filter false positives) before finding its key;
//   - write stalls: when flushing and compaction fall behind, L0 backs
//     up and writers are throttled (RocksDB's delayed-write semantics —
//     the append is admitted, the writer sleeps).
//
// Blocks live on extents past the B-tree layout's address space; reads
// go through the shared buffer cache like any other block, while
// compaction streams bypass it entirely (sequential merge input is
// read once and would only pollute the LRU).
package lsm

import (
	"odbscale/internal/engine"
	"odbscale/internal/odb"
	"odbscale/internal/sim"
	"odbscale/internal/xrand"
)

func init() { engine.Register(factory{}) }

type factory struct{}

func (factory) Name() string { return "lsm" }

func (factory) New(env engine.Env) engine.Instance { return newInstance(env) }

// level is one sorted run level of the tree (L1..Ln). bytes is the
// current logical residency; the extent is sized with slack so
// compaction output never overruns it.
type level struct {
	base     odb.BlockID
	blocks   uint64 // extent size
	capBytes uint64
	bytes    uint64
}

// job kinds for the single active maintenance job.
const (
	jobNone = iota
	jobFlush
	jobCompact
	jobRewrite // bottom-level in-place rewrite reclaiming obsolete versions
)

type job struct {
	kind         int
	level        int    // source level for jobCompact/jobRewrite
	unitsLeft    uint64 // output blocks still to write
	readEvery    uint64 // issue one input read per readEvery output units (0 = none)
	readTick     uint64
	inBytes      uint64 // bytes leaving the source when the job finishes
	consumedRuns int    // L0 runs consumed (jobCompact from L0)
}

// instance is one LSM engine bound to a machine.
type instance struct {
	env engine.Env
	tun engine.LSMTuning
	ctr engine.Counters

	// Key space: rows of every heap table in one global sort order.
	tableOff  [odb.NumHeapTables]uint64
	totalKeys uint64

	liveBlocks uint64
	liveBytes  uint64

	memCap    uint64 // memtable capacity, bytes
	memBlocks uint64 // blocks per flushed run
	memBytes  uint64 // active memtable fill
	sealed    int    // sealed memtables awaiting flush

	l0Base  odb.BlockID
	l0Slots int
	l0Head  int // next slot a flush writes into
	l0Runs  int // flushed runs resident in L0

	levels []level // levels[0] unused; L1..Ln

	job    job
	wCur   uint64 // rotating output-block cursor within the destination extent
	rCur   uint64 // rotating input-block cursor within the source extent
	planRR uint64 // round-robin salt so repeated probes spread over a run
}

func newInstance(env engine.Env) *instance {
	in := &instance{env: env, tun: env.Tuning.LSM}
	l := env.Layout
	for t := odb.TableWarehouse; t <= odb.TableNewOrder; t++ {
		in.tableOff[int(t)] = in.totalKeys
		in.totalKeys += l.Heap(t).Rows
	}
	in.liveBlocks = engine.LiveDataBlocks(l)
	in.liveBytes = in.liveBlocks * odb.BlockSize

	in.memCap = uint64(in.tun.MemtableMB) << 20
	in.memBlocks = in.memCap / odb.BlockSize
	if in.memBlocks == 0 {
		in.memBlocks = 1
	}

	// Extent cursor starts past the B-tree layout so the two engines'
	// block address spaces never collide.
	next := odb.BlockID(l.TotalBlocks())
	in.l0Slots = in.tun.L0StallRuns + 4
	in.l0Base = next
	next += odb.BlockID(uint64(in.l0Slots) * in.memBlocks)

	// Level capacities grow geometrically from the memtable size until a
	// level can hold the whole live set; that level is the bottom and
	// starts out holding it.
	in.levels = []level{{}} // L0 is run-structured, not a level
	capBytes := in.memCap
	for {
		capBytes *= uint64(in.tun.Fanout)
		lv := level{base: next, capBytes: capBytes}
		lv.blocks = 2 * (capBytes / odb.BlockSize)
		next += odb.BlockID(lv.blocks)
		in.levels = append(in.levels, lv)
		if capBytes >= in.liveBytes {
			break
		}
	}
	in.levels[len(in.levels)-1].bytes = in.liveBytes
	return in
}

func (in *instance) Name() string { return "lsm" }

// Levels returns the depth of the level hierarchy (L1..Ln), for tests
// relating write amplification to level count.
func (in *instance) Levels() int { return len(in.levels) - 1 }

// AddressEnd returns one past the last block an LSM engine of shape tun
// names over layout l: its L0 slots and levels follow the B-tree
// layout, so a caller can bound the block IDs a configuration will name
// before building a machine for it.
func AddressEnd(l *odb.Layout, tun engine.LSMTuning) odb.BlockID {
	return newInstance(engine.Env{Layout: l, Tuning: engine.Tuning{LSM: tun}}).End()
}

// End returns one past the engine's last block: the bottom level's
// extent ends the address space.
func (in *instance) End() odb.BlockID {
	bot := &in.levels[len(in.levels)-1]
	return bot.base + odb.BlockID(bot.blocks)
}

// keyFrac maps row (t, ord) to its fractional position in the global
// key order.
func (in *instance) keyFrac(t odb.TableID, ord uint64) float64 {
	return float64(in.tableOff[int(t)]+ord) / float64(in.totalKeys)
}

// l0RunBlock returns the probe block of the i-th newest L0 run for a
// key fraction.
func (in *instance) l0RunBlock(i int, frac float64) odb.BlockID {
	slot := ((in.l0Head-1-i)%in.l0Slots + in.l0Slots) % in.l0Slots
	off := uint64(frac * float64(in.memBlocks))
	if off >= in.memBlocks {
		off = in.memBlocks - 1
	}
	return in.l0Base + odb.BlockID(uint64(slot)*in.memBlocks+off)
}

// levelBlock returns the probe block of level lv for a key fraction.
func (in *instance) levelBlock(lv int, frac float64) odb.BlockID {
	l := &in.levels[lv]
	n := l.bytes / odb.BlockSize
	if n == 0 {
		n = 1
	}
	off := uint64(frac * float64(n))
	if off >= l.blocks {
		off = l.blocks - 1
	}
	return l.base + odb.BlockID(off)
}

// Planner returns an access planner drawing bloom/residence outcomes
// from its private rng stream.
func (in *instance) Planner(rng *xrand.Rand) odb.AccessPlanner {
	return &planner{in: in, rng: rng}
}

type planner struct {
	in  *instance
	rng *xrand.Rand
}

// ReadRow plans a point lookup: newest-to-oldest through the memtable,
// the L0 runs, then the levels. The key's resident container is drawn
// proportional to container sizes; every newer sorted run is guarded by
// a bloom filter, probed physically only on a false positive. Memtable
// work is pure compute; every physical probe is a buffer-cache read.
func (p *planner) ReadRow(ops []odb.Op, t odb.TableID, ord uint64) []odb.Op {
	in := p.in
	in.ctr.LogicalReads++
	frac := in.keyFrac(t, ord)

	memB := in.memBytes + uint64(in.sealed)*in.memCap
	l0B := uint64(in.l0Runs) * in.memCap
	total := memB + l0B
	for i := 1; i < len(in.levels); i++ {
		total += in.levels[i].bytes
	}
	r := uint64(p.rng.Float64() * float64(total))

	if r < memB {
		// Memtable hit: skiplist probe, no block touched.
		return append(ops, odb.Op{Kind: odb.OpCompute, Phase: odb.PhaseMemtable, Table: t, Ord: ord})
	}
	r -= memB
	// The memtable probe that missed still costs its lookup.
	ops = append(ops, odb.Op{Kind: odb.OpCompute, Phase: odb.PhaseMemtable, Table: t, Ord: ord})

	if r < l0B {
		home := int(r / in.memCap) // newest-first index of the resident run
		for i := 0; i < home; i++ {
			if p.rng.Bernoulli(in.tun.BloomFPRate) {
				ops = append(ops, odb.Op{Kind: odb.OpRead, Phase: odb.PhaseBuffer, Block: in.l0RunBlock(i, frac), Table: t, Ord: ord})
			}
		}
		return append(ops, odb.Op{Kind: odb.OpRead, Phase: odb.PhaseBuffer, Block: in.l0RunBlock(home, frac), Table: t, Ord: ord})
	}
	r -= l0B

	// Key lives in a level: bloom-check every L0 run and shallower level
	// on the way down.
	for i := 0; i < in.l0Runs; i++ {
		if p.rng.Bernoulli(in.tun.BloomFPRate) {
			ops = append(ops, odb.Op{Kind: odb.OpRead, Phase: odb.PhaseBuffer, Block: in.l0RunBlock(i, frac), Table: t, Ord: ord})
		}
	}
	home := len(in.levels) - 1
	for i := 1; i < len(in.levels); i++ {
		if r < in.levels[i].bytes {
			home = i
			break
		}
		r -= in.levels[i].bytes
	}
	for i := 1; i < home; i++ {
		if in.levels[i].bytes > 0 && p.rng.Bernoulli(in.tun.BloomFPRate) {
			ops = append(ops, odb.Op{Kind: odb.OpRead, Phase: odb.PhaseBuffer, Block: in.levelBlock(i, frac), Table: t, Ord: ord})
		}
	}
	return append(ops, odb.Op{Kind: odb.OpRead, Phase: odb.PhaseBuffer, Block: in.levelBlock(home, frac), Table: t, Ord: ord})
}

// WriteRow plans a blind write: key + row bytes appended to the
// memtable. No page is read, no index maintained — the engine
// difference that removes the B-tree's hot-block latch contention.
func (p *planner) WriteRow(ops []odb.Op, t odb.TableID, ord uint64, delta int64) []odb.Op {
	in := p.in
	row := odb.RowBytes(t)
	in.ctr.LogicalWriteBytes += uint64(row)
	return append(ops, odb.Op{
		Kind: odb.OpMemWrite, Phase: odb.PhaseMemtable,
		Bytes: row + in.tun.KeyBytes,
		Table: t, Ord: ord, Delta: delta,
	})
}

// IndexLookup emits nothing: the LSM keeps no materialized secondary
// trees; ReadRow's run probes already model the lookup cost.
func (p *planner) IndexLookup(ops []odb.Op, idx odb.TableID, ord uint64) []odb.Op {
	_, _ = idx, ord
	return ops
}

// PrefillBlocks: the bottom level's initial image.
func (in *instance) PrefillBlocks() (odb.BlockID, uint64) {
	bot := &in.levels[len(in.levels)-1]
	return bot.base, in.liveBytes / odb.BlockSize
}

// MemWrite appends to the memtable, sealing it at capacity. While L0
// (including sealed memtables) is at or past the stall threshold every
// append is throttled: the write is admitted but the writer sleeps —
// RocksDB's delayed-write behaviour.
func (in *instance) MemWrite(bytes int) sim.Time {
	in.memBytes += uint64(bytes)
	if in.memBytes >= in.memCap {
		in.memBytes = 0
		in.sealed++
	}
	if in.l0Runs+in.sealed >= in.tun.L0StallRuns {
		in.ctr.WriteStalls++
		return sim.Time(in.env.Rand.Exp(in.tun.StallMS) * in.env.CyclesPerMS)
	}
	return 0
}

// pickJob selects the next maintenance job: flushes beat compactions,
// L0 beats deeper levels, and the bottom rewrites itself when obsolete
// versions bloat it past 25% of the live size.
func (in *instance) pickJob() bool {
	t := &in.tun
	if in.sealed > 0 {
		in.job = job{kind: jobFlush, unitsLeft: in.memBlocks}
		return true
	}
	if in.l0Runs >= t.L0CompactRuns {
		inBytes := uint64(in.l0Runs) * in.memCap
		in.startCompact(0, inBytes, in.l0Runs)
		return true
	}
	for i := 1; i < len(in.levels)-1; i++ {
		if in.levels[i].bytes > in.levels[i].capBytes {
			in.startCompact(i, in.levels[i].bytes-in.levels[i].capBytes, 0)
			return true
		}
	}
	bot := len(in.levels) - 1
	if in.levels[bot].bytes > in.liveBytes+in.liveBytes/4 {
		inBytes := in.levels[bot].bytes - in.liveBytes
		units := 2 * (inBytes / odb.BlockSize)
		if units == 0 {
			units = 1
		}
		in.job = job{kind: jobRewrite, level: bot, unitsLeft: units, readEvery: 2, inBytes: inBytes}
		return true
	}
	return false
}

// startCompact sets up a merge of inBytes from level src into src+1.
// The merge rewrites the overlapping range of the destination too —
// that overlap, bounded by the destination's residency, is what makes
// deeper trees amplify writes more.
func (in *instance) startCompact(src int, inBytes uint64, runs int) {
	dst := &in.levels[src+1]
	overlap := inBytes * uint64(in.tun.Fanout)
	if overlap > dst.bytes {
		overlap = dst.bytes
	}
	units := (inBytes + overlap) / odb.BlockSize
	if units == 0 {
		units = 1
	}
	// One input-read per output-write unit: the merge reads what it
	// rewrites (source plus destination overlap).
	in.job = job{kind: jobCompact, level: src, unitsLeft: units, readEvery: 1, inBytes: inBytes, consumedRuns: runs}
}

// stepJob performs one block unit of the active job and returns the
// block written. Compaction streams bypass the buffer cache: input is
// an asynchronous background read, output an asynchronous write.
func (in *instance) stepJob() odb.BlockID {
	j := &in.job
	var src, dst *level
	switch j.kind {
	case jobFlush:
		slot := uint64(in.l0Head) * in.memBlocks
		bl := in.l0Base + odb.BlockID(slot+(in.memBlocks-j.unitsLeft))
		in.env.Disks.Write(uint64(bl))
		in.ctr.PhysicalWriteBytes += odb.BlockSize
		j.unitsLeft--
		if j.unitsLeft == 0 {
			in.finishJob()
		}
		return bl
	case jobCompact:
		if j.level == 0 {
			dst = &in.levels[1]
		} else {
			src = &in.levels[j.level]
			dst = &in.levels[j.level+1]
		}
	case jobRewrite:
		src = &in.levels[j.level]
		dst = src
	}
	if j.readEvery > 0 {
		j.readTick++
		if j.readTick >= j.readEvery {
			j.readTick = 0
			var rb odb.BlockID
			if src == nil {
				// L0 input: cycle across the resident runs.
				rb = in.l0Base + odb.BlockID(in.rCur%(uint64(in.l0Slots)*in.memBlocks))
			} else {
				rb = src.base + odb.BlockID(in.rCur%src.blocks)
			}
			in.rCur++
			in.env.Disks.BackgroundRead(uint64(rb))
			in.ctr.CompactReadBlocks++
		}
	}
	bl := dst.base + odb.BlockID(in.wCur%dst.blocks)
	in.wCur++
	in.env.Disks.Write(uint64(bl))
	in.ctr.PhysicalWriteBytes += odb.BlockSize
	j.unitsLeft--
	if j.unitsLeft == 0 {
		in.finishJob()
	}
	return bl
}

// finishJob applies the completed job's logical effect. ObsoleteFrac of
// migrated bytes are newer versions of keys already present below, so
// they vanish rather than accumulate.
func (in *instance) finishJob() {
	j := in.job
	switch j.kind {
	case jobFlush:
		in.sealed--
		in.l0Runs++
		in.l0Head = (in.l0Head + 1) % in.l0Slots
		in.ctr.Flushes++
	case jobCompact:
		kept := j.inBytes - uint64(float64(j.inBytes)*in.tun.ObsoleteFrac)
		if j.level == 0 {
			in.l0Runs -= j.consumedRuns
			in.levels[1].bytes += kept
		} else {
			in.levels[j.level].bytes -= j.inBytes
			in.levels[j.level+1].bytes += kept
		}
		in.ctr.Compactions++
	case jobRewrite:
		bot := &in.levels[j.level]
		if bot.bytes > in.liveBytes+j.inBytes {
			bot.bytes -= j.inBytes
		} else {
			bot.bytes = in.liveBytes
		}
		in.ctr.Compactions++
	}
	in.job = job{}
}

// Maintain runs one maintenance activation: up to CompactBatch block
// units of flush/compaction work, billed like DB-writer batches.
func (in *instance) Maintain(scratch []odb.BlockID) engine.MaintResult {
	var osInstr uint64 = 2_000 // scan/scheduling overhead
	blocks := scratch[:0]
	units := 0
	for units < in.tun.CompactBatch {
		if in.job.kind == jobNone && !in.pickJob() {
			break
		}
		blocks = append(blocks, in.stepJob())
		units++
	}
	osInstr += uint64(units) * in.env.Tuning.DBWriterInstr
	if units == 0 {
		return engine.MaintResult{OSInstr: osInstr, Phase: odb.PhaseCompact}
	}
	return engine.MaintResult{OSInstr: osInstr, Phase: odb.PhaseCompact, Blocks: blocks}
}

// Counters reports the period ledger plus the instantaneous footprint.
func (in *instance) Counters() engine.Counters {
	c := in.ctr
	c.DiskBlocks = uint64(in.l0Runs+in.sealed) * in.memBlocks
	for i := 1; i < len(in.levels); i++ {
		c.DiskBlocks += in.levels[i].bytes / odb.BlockSize
	}
	c.LiveBlocks = in.liveBlocks
	return c
}

func (in *instance) ResetStats() { in.ctr = engine.Counters{} }

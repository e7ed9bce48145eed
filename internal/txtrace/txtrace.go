// Package txtrace is the per-transaction span tracer: it records each
// sampled transaction's lifecycle as a tree of simulated-time spans —
// run-queue wait, per-phase CPU, lock wait per lock class, buffer-cache
// miss I/O, buffer busy wait — and retains a deterministic sample of
// them (head sampling by commit counter plus a tail reservoir of the K
// slowest per transaction type, so p99+ outliers are always captured).
//
// The tracer is strictly observational: it draws no randomness,
// schedules no events, and a run with tracing attached is bit-identical
// to a plain run. It is also exact: a retained trace's segments tile
// the transaction's measured latency window with no gaps or overlaps,
// so the wait-state breakdown sums to the measured latency in integer
// cycles.
//
// Time attribution works at chunk granularity: a transaction's latency
// runs from the start of the chunk that generates it to the start of the
// chunk that commits it. A chunk's CPU segment belongs to the
// transaction active at the chunk's end, the commit chunk is excluded
// symmetrically with the generating chunk's lead-in, and scheduling gaps
// between chunks split at the scheduler's ready timestamp into resource
// wait (lock, I/O, busy) and run-queue wait. Run-queue wait includes the dispatch
// context-switch cost, which runs before the chunk starts.
//
// The package is under the odblint determinism and hot-path allocation
// rules: the per-commit path allocates nothing in steady state — span
// records and segment slices come from pools and are recycled when
// their trace leaves both sample sets.
package txtrace

import (
	"sync"

	"odbscale/internal/odb"
	"odbscale/internal/sim"
)

// Kind classifies one span segment.
type Kind uint8

// Segment kinds. KindCPU segments carry a per-phase cycle
// apportionment; KindLockWait segments carry the lock class.
const (
	KindCPU Kind = iota
	KindLockWait
	KindIOWait
	KindBusyWait
	KindQueue
	numKinds
)

var kindNames = [numKinds]string{"cpu", "lock", "io", "busy", "queue"}

func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "kind(?)"
}

// Segment is one leaf span: a half-open window [Start, Start+Dur) of
// the transaction's lifecycle, classified by what the transaction was
// doing. CPU segments additionally record the transaction's instruction
// count in the chunk and the chunk cycles apportioned to each engine
// phase; cycles not attributable to a phase (other processes'
// instructions in the chunk, interrupt-context work, rounding) are the
// segment's unattributed remainder.
type Segment struct {
	Kind   Kind                    `json:"kind"`
	Class  uint8                   `json:"class,omitempty"` // lock class for KindLockWait
	Start  sim.Time                `json:"start"`
	Dur    sim.Time                `json:"dur"`
	Instr  uint64                  `json:"instr,omitempty"`
	Phases [odb.NumPhases]sim.Time `json:"phases"`
}

// Trace is one sampled transaction's span tree: the root span is the
// measured latency window [Start, Start+Latency), and Segs are its leaf
// spans in time order, tiling the window exactly.
type Trace struct {
	Type    odb.TxnType `json:"type"`
	Name    string      `json:"name"`
	Seq     uint64      `json:"seq"` // commit order among measured transactions
	Proc    int         `json:"proc"`
	Start   sim.Time    `json:"start"`
	Latency sim.Time    `json:"latency"`
	Segs    []Segment   `json:"segs"`

	head, tail bool // retention flags; a trace may be in both sets
}

// Breakdown decomposes a latency window into wait states: CPU cycles
// per engine phase, unattributed CPU remainder, lock wait per class,
// I/O wait, buffer busy wait and run-queue wait. All fields are integer
// cycles and Total reconstructs the window exactly.
type Breakdown struct {
	CPUPhase [odb.NumPhases]sim.Time      `json:"cpuPhase"`
	CPUOther sim.Time                     `json:"cpuOther"`
	Lock     [odb.NumLockClasses]sim.Time `json:"lock"`
	IO       sim.Time                     `json:"io"`
	Busy     sim.Time                     `json:"busy"`
	Queue    sim.Time                     `json:"queue"`
}

// add accumulates the segments into b.
func (b *Breakdown) add(segs []Segment) {
	for i := range segs {
		s := &segs[i]
		switch s.Kind {
		case KindCPU:
			var attributed sim.Time
			for p, c := range s.Phases {
				b.CPUPhase[p] += c
				attributed += c
			}
			b.CPUOther += s.Dur - attributed
		case KindLockWait:
			if int(s.Class) < odb.NumLockClasses {
				b.Lock[s.Class] += s.Dur
			} else {
				b.CPUOther += s.Dur
			}
		case KindIOWait:
			b.IO += s.Dur
		case KindBusyWait:
			b.Busy += s.Dur
		case KindQueue:
			b.Queue += s.Dur
		}
	}
}

// merge adds o into b component-wise.
func (b *Breakdown) merge(o *Breakdown) {
	for p := range b.CPUPhase {
		b.CPUPhase[p] += o.CPUPhase[p]
	}
	b.CPUOther += o.CPUOther
	for c := range b.Lock {
		b.Lock[c] += o.Lock[c]
	}
	b.IO += o.IO
	b.Busy += o.Busy
	b.Queue += o.Queue
}

// CPU returns the phase-attributed CPU cycles.
func (b *Breakdown) CPU() sim.Time {
	var t sim.Time
	for _, c := range b.CPUPhase {
		t += c
	}
	return t
}

// LockTotal returns the lock-wait cycles summed over classes.
func (b *Breakdown) LockTotal() sim.Time {
	var t sim.Time
	for _, c := range b.Lock {
		t += c
	}
	return t
}

// Total returns the sum of every component — the reconstructed latency.
func (b *Breakdown) Total() sim.Time {
	return b.CPU() + b.CPUOther + b.LockTotal() + b.IO + b.Busy + b.Queue
}

// Breakdown computes the trace's wait-state decomposition. Because the
// segments tile the latency window exactly, the result's Total equals
// Latency in integer cycles.
func (tr *Trace) Breakdown() Breakdown {
	var b Breakdown
	b.add(tr.Segs)
	return b
}

// Config parameterizes the sampler. The zero value means defaults;
// negative values disable the corresponding sample set.
type Config struct {
	// HeadEvery keeps every Nth measured commit (1 = every one,
	// 0 = DefaultHeadEvery, negative = head sampling off).
	HeadEvery int `json:"headEvery"`
	// HeadCap bounds the head sample set; when full the oldest head
	// sample is evicted, so the newest are kept (0 = DefaultHeadCap).
	HeadCap int `json:"headCap"`
	// TailK is the tail reservoir size: the K slowest measured
	// transactions of each type are always retained (0 = DefaultTailK,
	// negative = tail reservoir off).
	TailK int `json:"tailK"`
}

// Sampler defaults.
const (
	DefaultHeadEvery = 64
	DefaultHeadCap   = 512
	DefaultTailK     = 8
)

func (c Config) withDefaults() Config {
	switch {
	case c.HeadEvery == 0:
		c.HeadEvery = DefaultHeadEvery
	case c.HeadEvery < 0:
		c.HeadEvery = 0
	}
	if c.HeadCap == 0 {
		c.HeadCap = DefaultHeadCap
	}
	if c.HeadCap < 0 {
		c.HeadCap = 0
	}
	switch {
	case c.TailK == 0:
		c.TailK = DefaultTailK
	case c.TailK < 0:
		c.TailK = 0
	}
	return c
}

// Meta identifies the traced run.
type Meta struct {
	Label        string  `json:"label,omitempty"`
	Warehouses   int     `json:"warehouses"`
	Clients      int     `json:"clients"`
	Processors   int     `json:"processors"`
	Seed         int64   `json:"seed"`
	FreqHz       float64 `json:"freqHz"`
	HeadEvery    int     `json:"headEvery"`
	HeadCap      int     `json:"headCap"`
	TailK        int     `json:"tailK"`
	MeasuredTxns uint64  `json:"measuredTxns"`
}

// typeAgg accumulates per-type statistics over every measured
// transaction (not just the sampled ones) plus the tail reservoir.
type typeAgg struct {
	count      uint64
	hist       histogram // latency in cycles
	sum        Breakdown
	sumLatency sim.Time
	tail       []*Trace
}

// ProcState is the per-process span builder. It is owned by the
// simulation thread: the system layer calls its methods from the chunk
// execution path without locking, and hands it to Tracer.End at commit.
type ProcState struct {
	proc    int
	active  bool
	typ     odb.TxnType
	start   sim.Time
	lastEnd sim.Time // end of the last priced chunk

	// pend is the block kind recorded when the current chunk blocked;
	// KindCPU means no block is pending (a plain preemption or
	// continuation gap is pure run-queue wait).
	pend      Kind
	pendClass uint8

	segs []Segment

	// Per-chunk instruction scratch: this transaction's instructions in
	// the current chunk, by phase, for the CPU segment's apportionment.
	chunkInstr  uint64
	chunkPhases [odb.NumPhases]uint64
}

// Begin starts a new transaction window at the current chunk's start
// time (latency endpoints are chunk start times). The segment scratch
// from any earlier transaction in the same chunk is discarded: its share
// of the chunk's cycles lands in the unattributed remainder.
func (ts *ProcState) Begin(typ odb.TxnType, now sim.Time) {
	ts.active = true
	ts.typ = typ
	ts.start = now
	ts.lastEnd = now
	ts.pend = KindCPU
	ts.segs = ts.segs[:0]
	ts.chunkInstr = 0
	ts.chunkPhases = [odb.NumPhases]uint64{}
}

// AddInstr charges instructions of the current chunk to an engine phase
// on behalf of the active transaction.
func (ts *ProcState) AddInstr(ph odb.Phase, instr uint64) {
	if !ts.active {
		return
	}
	ts.chunkInstr += instr
	ts.chunkPhases[ph] += instr
}

// SetBlock records why the current chunk is blocking; the gap before
// the next chunk will be classified accordingly.
func (ts *ProcState) SetBlock(k Kind, class uint8) {
	if !ts.active {
		return
	}
	ts.pend = k
	ts.pendClass = class
}

// StartChunk classifies the gap since the last chunk end: time up to
// readyAt (clamped into the gap) is the pending block's wait, the rest
// is run-queue wait. readyAt is the scheduler's ready-queue entry
// stamp, so dispatch context-switch cost counts as queue wait.
func (ts *ProcState) StartChunk(now, readyAt sim.Time) {
	if !ts.active {
		return
	}
	r := readyAt
	if r < ts.lastEnd {
		r = ts.lastEnd
	}
	if r > now {
		r = now
	}
	if ts.pend != KindCPU && r > ts.lastEnd {
		ts.segs = append(ts.segs, Segment{Kind: ts.pend, Class: ts.pendClass, Start: ts.lastEnd, Dur: r - ts.lastEnd})
	}
	if now > r {
		ts.segs = append(ts.segs, Segment{Kind: KindQueue, Start: r, Dur: now - r})
	}
	ts.pend = KindCPU
}

// EndChunk closes the chunk that started at start and cost cycles,
// appending the active transaction's CPU segment. The transaction's
// per-phase instruction scratch apportions the chunk's cycles
// (integer floor); the rest of the segment is the unattributed
// remainder picked up by Breakdown.
func (ts *ProcState) EndChunk(start, cycles sim.Time, totalInstr uint64) {
	if ts.active && cycles > 0 {
		seg := Segment{Kind: KindCPU, Start: start, Dur: cycles, Instr: ts.chunkInstr}
		if totalInstr > 0 {
			var attributed sim.Time
			for p := range seg.Phases {
				c := sim.Time(ts.chunkPhases[p] * uint64(cycles) / totalInstr)
				seg.Phases[p] = c
				attributed += c
			}
			// The floor division can only under-attribute, but guard the
			// invariant anyway: phase cycles never exceed the segment.
			if attributed > cycles {
				seg.Phases = [odb.NumPhases]sim.Time{}
			}
		}
		ts.segs = append(ts.segs, seg)
	}
	ts.lastEnd = start + cycles
	ts.chunkInstr = 0
	ts.chunkPhases = [odb.NumPhases]uint64{}
}

// Tracer retains sampled transaction traces and per-type aggregates.
// The simulation thread is the single writer; Dump reads them, under
// the mutex, once the run is over.
type Tracer struct {
	mu      sync.Mutex
	cfg     Config
	meta    Meta
	seq     uint64 // measured commits so far
	types   [odb.NumTxnTypes]typeAgg
	heads   []*Trace // head-sample ring, oldest at headIdx
	headIdx int
	pool    []*Trace
}

// NewTracer builds a tracer with the given sampling configuration.
func NewTracer(cfg Config) *Tracer {
	return &Tracer{cfg: cfg.withDefaults()}
}

// Config returns the effective (default-resolved) configuration.
func (t *Tracer) Config() Config { return t.cfg }

// SetMeta stamps the run's identity; sampler fields and the measured
// count are filled in by the tracer itself.
func (t *Tracer) SetMeta(meta Meta) {
	t.mu.Lock()
	defer t.mu.Unlock()
	meta.HeadEvery = t.cfg.HeadEvery
	meta.HeadCap = t.cfg.HeadCap
	meta.TailK = t.cfg.TailK
	t.meta = meta
}

// NewProcState returns a fresh per-process span builder.
func (t *Tracer) NewProcState(proc int) *ProcState {
	return &ProcState{proc: proc}
}

// take pops a recycled trace or grows the pool.
func (t *Tracer) take() *Trace {
	if n := len(t.pool); n > 0 {
		tr := t.pool[n-1]
		t.pool = t.pool[:n-1]
		return tr
	}
	//lint:ignore hotalloc pool growth: allocates only until the pool covers the retained-sample working set, steady state recycles evicted traces
	return &Trace{}
}

// release recycles a trace no longer referenced by either sample set.
func (t *Tracer) release(tr *Trace) {
	if tr.head || tr.tail {
		return
	}
	tr.Segs = tr.Segs[:0]
	t.pool = append(t.pool, tr)
}

// End closes the process's active transaction window at now (the commit
// chunk's start time). Warm-up transactions are discarded; measured
// ones feed the per-type aggregates and the deterministic sample sets.
func (t *Tracer) End(ts *ProcState, now sim.Time, measured bool) {
	if ts == nil || !ts.active {
		return
	}
	ts.active = false
	if !measured {
		return
	}
	lat := now - ts.start

	t.mu.Lock()
	defer t.mu.Unlock()
	seq := t.seq
	t.seq++

	ta := &t.types[ts.typ]
	ta.count++
	ta.hist.Observe(uint64(lat))
	ta.sumLatency += lat
	var b Breakdown
	b.add(ts.segs)
	ta.sum.merge(&b)

	keepHead := t.cfg.HeadEvery > 0 && t.cfg.HeadCap > 0 && seq%uint64(t.cfg.HeadEvery) == 0
	// Tail reservoir: keep if the reservoir has room, or the new trace
	// is strictly slower than its slot's current minimum (ties keep the
	// earlier transaction, so the sample set is deterministic).
	evict := -1
	keepTail := false
	if t.cfg.TailK > 0 {
		if len(ta.tail) < t.cfg.TailK {
			keepTail = true
		} else {
			min := 0
			for i := 1; i < len(ta.tail); i++ {
				if ta.tail[i].Latency < ta.tail[min].Latency ||
					(ta.tail[i].Latency == ta.tail[min].Latency && ta.tail[i].Seq > ta.tail[min].Seq) {
					min = i
				}
			}
			if lat > ta.tail[min].Latency {
				keepTail = true
				evict = min
			}
		}
	}
	if !keepHead && !keepTail {
		return
	}

	tr := t.take()
	tr.Type = ts.typ
	tr.Name = ts.typ.String()
	tr.Seq = seq
	tr.Proc = ts.proc
	tr.Start = ts.start
	tr.Latency = lat
	// Slice swap: the trace takes the built segments; the proc state
	// gets the trace's recycled capacity for its next transaction.
	tr.Segs, ts.segs = ts.segs, tr.Segs[:0]

	if keepHead {
		tr.head = true
		if len(t.heads) < t.cfg.HeadCap {
			t.heads = append(t.heads, tr)
		} else {
			old := t.heads[t.headIdx]
			t.heads[t.headIdx] = tr
			t.headIdx = (t.headIdx + 1) % t.cfg.HeadCap
			old.head = false
			t.release(old)
		}
	}
	if keepTail {
		tr.tail = true
		if evict >= 0 {
			old := ta.tail[evict]
			ta.tail[evict] = tr
			old.tail = false
			t.release(old)
		} else {
			ta.tail = append(ta.tail, tr)
		}
	}
}

// MeasuredTxns returns the number of measured commits observed.
func (t *Tracer) MeasuredTxns() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

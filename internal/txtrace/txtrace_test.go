package txtrace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"odbscale/internal/odb"
	"odbscale/internal/sim"
)

// TestProcStateTiling drives one transaction through a realistic chunk
// sequence — generation chunk, a lock block, a preemption, the commit
// chunk — and checks the built segments tile the latency window exactly
// and the breakdown reconstructs it component by component.
func TestProcStateTiling(t *testing.T) {
	tr := NewTracer(Config{HeadEvery: 1, TailK: -1})
	ps := tr.NewProcState(3)

	// Generation chunk: [1000, 1200), 400 total instructions of which
	// 100 are this transaction's parse work.
	ps.Begin(odb.NewOrder, 1000)
	ps.AddInstr(odb.PhaseParse, 100)
	ps.EndChunk(1000, 200, 400)

	// Lock block: ready again at 1350, dispatched at 1500.
	ps.SetBlock(KindLockWait, uint8(odb.LockDistrict))
	ps.StartChunk(1500, 1350)
	ps.AddInstr(odb.PhaseBTree, 300)
	ps.EndChunk(1500, 300, 300)

	// Preemption: requeued at chunk end (readyAt == lastEnd), so the
	// whole gap is run-queue wait.
	ps.StartChunk(2000, 1800)
	ps.EndChunk(2000, 100, 0)

	// Commit chunk: the tracer ends the window at its start time; the
	// commit chunk's own cycles are excluded.
	ps.StartChunk(2300, 2100)
	tr.End(ps, 2300, true)

	d := tr.Dump()
	if len(d.Traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(d.Traces))
	}
	got := d.Traces[0]
	if got.Latency != 1300 || got.Start != 1000 || got.Proc != 3 {
		t.Fatalf("trace window = start %d latency %d proc %d, want 1000/1300/3",
			got.Start, got.Latency, got.Proc)
	}

	want := []Segment{
		{Kind: KindCPU, Start: 1000, Dur: 200, Instr: 100,
			Phases: phaseCycles(odb.PhaseParse, 50)}, // 100*200/400
		{Kind: KindLockWait, Class: uint8(odb.LockDistrict), Start: 1200, Dur: 150},
		{Kind: KindQueue, Start: 1350, Dur: 150},
		{Kind: KindCPU, Start: 1500, Dur: 300, Instr: 300,
			Phases: phaseCycles(odb.PhaseBTree, 300)},
		{Kind: KindQueue, Start: 1800, Dur: 200},
		{Kind: KindCPU, Start: 2000, Dur: 100},
		{Kind: KindQueue, Start: 2100, Dur: 200},
	}
	if !reflect.DeepEqual(got.Segs, want) {
		t.Fatalf("segments:\n got %+v\nwant %+v", got.Segs, want)
	}
	assertTiles(t, &got)

	b := got.Breakdown()
	if b.CPUPhase[odb.PhaseParse] != 50 || b.CPUPhase[odb.PhaseBTree] != 300 {
		t.Errorf("phase cycles parse=%d btree=%d, want 50/300",
			b.CPUPhase[odb.PhaseParse], b.CPUPhase[odb.PhaseBTree])
	}
	if b.CPUOther != 250 || b.Lock[odb.LockDistrict] != 150 || b.Queue != 550 {
		t.Errorf("other=%d lock=%d queue=%d, want 250/150/550",
			b.CPUOther, b.Lock[odb.LockDistrict], b.Queue)
	}
	if b.Total() != got.Latency {
		t.Errorf("breakdown total %d != latency %d", b.Total(), got.Latency)
	}
}

// phaseCycles builds a phase array with one non-zero entry.
func phaseCycles(p odb.Phase, c sim.Time) [odb.NumPhases]sim.Time {
	var out [odb.NumPhases]sim.Time
	out[p] = c
	return out
}

// assertTiles checks the trace's segments cover [Start, Start+Latency)
// contiguously with no gaps or overlaps.
func assertTiles(t *testing.T, tr *Trace) {
	t.Helper()
	at := tr.Start
	for i, s := range tr.Segs {
		if s.Start != at {
			t.Fatalf("seg %d starts at %d, want %d (gap or overlap)", i, s.Start, at)
		}
		at += s.Dur
	}
	if at != tr.Start+tr.Latency {
		t.Fatalf("segments end at %d, want %d", at, tr.Start+tr.Latency)
	}
}

// endSynthetic runs one whole synthetic transaction of the given type
// and latency through the proc state and tracer.
func endSynthetic(tr *Tracer, ps *ProcState, typ odb.TxnType, start, lat sim.Time) {
	ps.Begin(typ, start)
	ps.EndChunk(start, lat, 0)
	tr.End(ps, start+lat, true)
}

// TestTailReservoirKeepsSlowest injects latency outliers at known
// positions and checks the reservoir retains exactly the K slowest of
// each type, regardless of arrival order.
func TestTailReservoirKeepsSlowest(t *testing.T) {
	tr := NewTracer(Config{HeadEvery: -1, TailK: 3})
	ps := tr.NewProcState(0)
	lats := []sim.Time{5, 100, 3, 50, 7, 99, 101, 2, 42, 10}
	var at sim.Time
	for _, lat := range lats {
		endSynthetic(tr, ps, odb.Payment, at, lat)
		at += lat
	}
	d := tr.Dump()
	got := map[sim.Time]bool{}
	for _, x := range d.Traces {
		got[x.Latency] = true
	}
	want := map[sim.Time]bool{101: true, 100: true, 99: true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reservoir latencies %v, want %v", got, want)
	}

	// The aggregates still cover the whole population.
	var stat *TypeStat
	for i := range d.Types {
		if d.Types[i].Type == odb.Payment.String() {
			stat = &d.Types[i]
		}
	}
	if stat == nil || stat.Count != uint64(len(lats)) {
		t.Fatalf("population count = %+v, want %d", stat, len(lats))
	}
}

// TestTailReservoirTies checks equal latencies keep the earliest
// transactions, so the sample set is deterministic.
func TestTailReservoirTies(t *testing.T) {
	tr := NewTracer(Config{HeadEvery: -1, TailK: 2})
	ps := tr.NewProcState(0)
	for i := 0; i < 4; i++ {
		endSynthetic(tr, ps, odb.Delivery, sim.Time(i*100), 10)
	}
	d := tr.Dump()
	if len(d.Traces) != 2 || d.Traces[0].Seq != 0 || d.Traces[1].Seq != 1 {
		t.Fatalf("tie-broken reservoir = %+v, want seqs 0 and 1", d.Traces)
	}
}

// TestTailReservoirPerType checks the reservoir is independent per
// transaction type.
func TestTailReservoirPerType(t *testing.T) {
	tr := NewTracer(Config{HeadEvery: -1, TailK: 1})
	ps := tr.NewProcState(0)
	endSynthetic(tr, ps, odb.NewOrder, 0, 100)
	endSynthetic(tr, ps, odb.Payment, 100, 5)
	endSynthetic(tr, ps, odb.NewOrder, 200, 7)
	d := tr.Dump()
	if len(d.Traces) != 2 {
		t.Fatalf("retained %d traces, want one per type", len(d.Traces))
	}
}

// TestHeadRingKeepsNewest overflows the head ring and checks the newest
// samples survive, in commit order.
func TestHeadRingKeepsNewest(t *testing.T) {
	tr := NewTracer(Config{HeadEvery: 1, HeadCap: 4, TailK: -1})
	ps := tr.NewProcState(0)
	for i := 0; i < 10; i++ {
		endSynthetic(tr, ps, odb.OrderStatus, sim.Time(i*10), 5)
	}
	d := tr.Dump()
	var seqs []uint64
	for _, x := range d.Traces {
		seqs = append(seqs, x.Seq)
	}
	if !reflect.DeepEqual(seqs, []uint64{6, 7, 8, 9}) {
		t.Fatalf("head ring seqs %v, want [6 7 8 9]", seqs)
	}
}

// TestHeadSamplingStride checks HeadEvery keeps exactly every Nth
// measured commit.
func TestHeadSamplingStride(t *testing.T) {
	tr := NewTracer(Config{HeadEvery: 3, TailK: -1})
	ps := tr.NewProcState(0)
	for i := 0; i < 10; i++ {
		endSynthetic(tr, ps, odb.StockLevel, sim.Time(i*10), 5)
	}
	d := tr.Dump()
	var seqs []uint64
	for _, x := range d.Traces {
		seqs = append(seqs, x.Seq)
	}
	if !reflect.DeepEqual(seqs, []uint64{0, 3, 6, 9}) {
		t.Fatalf("head stride seqs %v, want [0 3 6 9]", seqs)
	}
}

// TestWarmupDiscarded checks unmeasured commits neither count nor
// retain.
func TestWarmupDiscarded(t *testing.T) {
	tr := NewTracer(Config{HeadEvery: 1})
	ps := tr.NewProcState(0)
	ps.Begin(odb.NewOrder, 0)
	ps.EndChunk(0, 10, 0)
	tr.End(ps, 10, false)
	if tr.MeasuredTxns() != 0 {
		t.Fatalf("warm-up commit counted: %d", tr.MeasuredTxns())
	}
	if d := tr.Dump(); len(d.Traces) != 0 {
		t.Fatalf("warm-up commit retained: %d traces", len(d.Traces))
	}
}

// TestDumpRoundTrip checks Write/ReadDump reproduce the dump exactly.
func TestDumpRoundTrip(t *testing.T) {
	tr := NewTracer(Config{HeadEvery: 1, TailK: 2})
	tr.SetMeta(Meta{Label: "test", Warehouses: 10, Clients: 8, Processors: 2, Seed: 7, FreqHz: 2e9})
	ps := tr.NewProcState(1)
	for i := 0; i < 5; i++ {
		ps.Begin(odb.Payment, sim.Time(i*1000))
		ps.AddInstr(odb.PhaseBuffer, 40)
		ps.EndChunk(sim.Time(i*1000), 100, 80)
		ps.SetBlock(KindBusyWait, 0)
		ps.StartChunk(sim.Time(i*1000)+300, sim.Time(i*1000)+250)
		tr.End(ps, sim.Time(i*1000)+300, true)
	}
	d := tr.Dump()
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, d)
	}
}

// TestDumpDedupsHeadAndTail checks a trace in both sample sets appears
// once in the dump.
func TestDumpDedupsHeadAndTail(t *testing.T) {
	tr := NewTracer(Config{HeadEvery: 1, TailK: 8})
	ps := tr.NewProcState(0)
	endSynthetic(tr, ps, odb.NewOrder, 0, 100)
	if d := tr.Dump(); len(d.Traces) != 1 {
		t.Fatalf("head∩tail trace duplicated: %d entries", len(d.Traces))
	}
}

// TestCriticalPathSums checks the extracted path entries sum to the
// measured latency exactly and come out cost-ordered.
func TestCriticalPathSums(t *testing.T) {
	tr := Trace{Latency: 1300, Segs: []Segment{
		{Kind: KindCPU, Start: 0, Dur: 500, Phases: phaseCycles(odb.PhaseBTree, 450)},
		{Kind: KindLockWait, Class: uint8(odb.LockWarehouse), Start: 500, Dur: 300},
		{Kind: KindIOWait, Start: 800, Dur: 100},
		{Kind: KindQueue, Start: 900, Dur: 400},
	}}
	path := CriticalPath(&tr)
	var total sim.Time
	var share float64
	for i, e := range path {
		total += e.Cycles
		share += e.Share
		if i > 0 && e.Cycles > path[i-1].Cycles {
			t.Fatalf("path not cost-ordered at %d: %+v", i, path)
		}
	}
	if total != tr.Latency {
		t.Fatalf("path cycles sum to %d, want %d", total, tr.Latency)
	}
	if share < 0.999999 || share > 1.000001 {
		t.Fatalf("path shares sum to %g, want 1", share)
	}
	if path[0].Label != "cpu:btree" || path[0].Cycles != 450 {
		t.Fatalf("dominant entry = %+v, want cpu:btree 450", path[0])
	}
}

// TestChromeExportParses checks the export is valid trace-event JSON
// with the expected structure.
func TestChromeExportParses(t *testing.T) {
	tr := NewTracer(Config{HeadEvery: 1})
	tr.SetMeta(Meta{FreqHz: 2e9})
	ps := tr.NewProcState(2)
	ps.Begin(odb.NewOrder, 1000)
	ps.AddInstr(odb.PhaseParse, 50)
	ps.EndChunk(1000, 100, 50)
	ps.SetBlock(KindIOWait, 0)
	ps.StartChunk(1500, 1400)
	tr.End(ps, 1500, true)

	var buf bytes.Buffer
	if err := tr.Dump().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	// Thread metadata + txn slice + 3 segment slices (cpu, io, queue).
	var meta, slices int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			slices++
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if meta != 1 || slices != 4 {
		t.Fatalf("events = %d metadata + %d slices, want 1 + 4", meta, slices)
	}
}

// TestPoolRecycles checks evicted traces return to the pool and their
// memory is reused rather than reallocated.
func TestPoolRecycles(t *testing.T) {
	tr := NewTracer(Config{HeadEvery: 1, HeadCap: 2, TailK: -1})
	ps := tr.NewProcState(0)
	for i := 0; i < 8; i++ {
		endSynthetic(tr, ps, odb.NewOrder, sim.Time(i*10), 5)
	}
	tr.mu.Lock()
	pooled := len(tr.pool)
	tr.mu.Unlock()
	if pooled == 0 {
		t.Fatal("evicted traces were not recycled to the pool")
	}
}

// TestConfigDefaults checks zero and negative values resolve per the
// documented contract.
func TestConfigDefaults(t *testing.T) {
	got := NewTracer(Config{}).Config()
	want := Config{HeadEvery: DefaultHeadEvery, HeadCap: DefaultHeadCap, TailK: DefaultTailK}
	if got != want {
		t.Fatalf("zero config resolved to %+v, want %+v", got, want)
	}
	got = NewTracer(Config{HeadEvery: -1, HeadCap: -1, TailK: -1}).Config()
	if got.HeadEvery != 0 || got.HeadCap != 0 || got.TailK != 0 {
		t.Fatalf("negative config resolved to %+v, want all disabled", got)
	}
}

package profile

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"odbscale/internal/cpu"
	"odbscale/internal/odb"
)

// TestAddChunkConserves checks the apportionment invariant: whatever
// the share split, per-frame pieces sum exactly to the chunk totals —
// integer counts exactly, cycles by telescoping.
func TestAddChunkConserves(t *testing.T) {
	c := NewCollector()
	c.SetMeta(Meta{Scale: 1})
	shares := []Share{
		{Kind: KindOf(odb.NewOrder), Phase: odb.PhaseParse, Instr: 1},
		{Kind: KindOf(odb.NewOrder), Phase: odb.PhaseBTree, Instr: 3333},
		{Kind: KindOf(odb.NewOrder), Phase: odb.PhaseBuffer, Instr: 77},
		{Kind: KindOf(odb.Payment), Phase: odb.PhaseLock, Instr: 58_589},
	}
	var total uint64
	for _, s := range shares {
		total += s.Instr
	}
	ev := cpu.Events{TCMiss: 7, L2Miss: 13, L3Miss: 5, CoherMiss: 1, TLBMiss: 3, Mispred: 11, BusLatency: 1234.5}
	c.AddChunk(User, shares, total, 98765.4321, ev)
	p := c.Profile()

	if got := p.TotalInstr(); got != total {
		t.Errorf("instr sum %d != %d", got, total)
	}
	if got := p.TotalCycles(); math.Abs(got-98765.4321) > 1e-9 {
		t.Errorf("cycles sum %f != 98765.4321", got)
	}
	var tc, l2, l3, coher, tlb, mp uint64
	var bus float64
	for _, f := range p.Frames {
		tc += f.TCMiss
		l2 += f.L2Miss
		l3 += f.L3Miss
		coher += f.CoherMiss
		tlb += f.TLBMiss
		mp += f.Mispred
		bus += f.BusLatency
	}
	if tc != ev.TCMiss || l2 != ev.L2Miss || l3 != ev.L3Miss || coher != ev.CoherMiss || tlb != ev.TLBMiss || mp != ev.Mispred {
		t.Errorf("event counts not conserved: got tc=%d l2=%d l3=%d coher=%d tlb=%d mispred=%d", tc, l2, l3, coher, tlb, mp)
	}
	if math.Abs(bus-ev.BusLatency) > 1e-9 {
		t.Errorf("bus latency %f != %f", bus, ev.BusLatency)
	}
}

// TestProfileScalesEvents checks real counts are scaled counts × Scale.
func TestProfileScalesEvents(t *testing.T) {
	c := NewCollector()
	c.SetMeta(Meta{Scale: 64})
	c.AddChunk(OS, []Share{{Kind: KindKernel, Phase: odb.PhaseSched, Instr: 100}}, 100, 50, cpu.Events{L3Miss: 3, BusLatency: 10})
	p := c.Profile()
	if len(p.Frames) != 1 {
		t.Fatalf("frames = %+v", p.Frames)
	}
	f := p.Frames[0]
	if f.L3Miss != 3*64 || f.BusLatency != 10*64 {
		t.Errorf("scaling wrong: %+v", f)
	}
	if f.Txn != "(kernel)" || f.Phase != "sched" || f.Mode != "os" {
		t.Errorf("frame identity wrong: %+v", f)
	}
}

// TestIdleFrame checks SetIdle lands in the idle frame and stays out of
// the CPI accounting.
func TestIdleFrame(t *testing.T) {
	c := NewCollector()
	c.AddChunk(User, []Share{{Kind: KindOf(odb.Payment), Phase: odb.PhaseBuffer, Instr: 10}}, 10, 40, cpu.Events{})
	c.SetIdle(1e6)
	p := c.Profile()
	var idle *FrameCounters
	for i := range p.Frames {
		if p.Frames[i].Idle() {
			idle = &p.Frames[i]
		}
	}
	if idle == nil || idle.Cycles != 1e6 {
		t.Fatalf("idle frame missing or wrong: %+v", p.Frames)
	}
	if got := p.TotalCycles(); got != 40 {
		t.Errorf("idle cycles leaked into busy total: %f", got)
	}
	if got := p.CPI(); got != 4 {
		t.Errorf("CPI = %f, want 4", got)
	}
}

func sampleProfile(cyclesA, cyclesB float64) *Profile {
	c := NewCollector()
	c.SetMeta(Meta{Label: "sample", Scale: 1, Stall: cpu.Table3Costs(), OtherCPI: 0.35})
	c.AddChunk(User, []Share{{Kind: KindOf(odb.NewOrder), Phase: odb.PhaseBTree, Instr: 1000}}, 1000, cyclesA, cpu.Events{L2Miss: 8, L3Miss: 4, BusLatency: 500})
	c.AddChunk(OS, []Share{{Kind: KindOf(odb.NewOrder), Phase: odb.PhaseLogCommit, Instr: 500}}, 500, cyclesB, cpu.Events{Mispred: 2})
	c.Finalize(1.5, 10)
	return c.Profile()
}

// TestPhaseBreakdownSums checks the table rows reproduce the profile
// CPI and each row's components sum to its cycles.
func TestPhaseBreakdownSums(t *testing.T) {
	p := sampleProfile(5000, 1200)
	var sum float64
	for _, r := range p.PhaseBreakdown() {
		sum += r.CPI
		if math.Abs(r.Comp.Total()-r.Cycles) > 1e-9 {
			t.Errorf("phase %s: components %f != cycles %f", r.Phase, r.Comp.Total(), r.Cycles)
		}
	}
	if math.Abs(sum-p.CPI()) > 1e-12 {
		t.Errorf("row sum %.15f != CPI %.15f", sum, p.CPI())
	}
	var buf bytes.Buffer
	if err := p.WriteCPITable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"btree", "logcommit", "total", "L3 share"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestFoldedAndText checks the two flame-graph-facing formats.
func TestFoldedAndText(t *testing.T) {
	p := sampleProfile(5000, 1200)
	var folded bytes.Buffer
	if err := p.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	want := "NewOrder;btree;user 5000\n"
	if !strings.Contains(folded.String(), want) {
		t.Errorf("folded output missing %q:\n%s", want, folded.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(folded.String()), "\n") {
		if parts := strings.Split(line, " "); len(parts) != 2 || strings.Count(parts[0], ";") != 2 {
			t.Errorf("malformed folded line %q", line)
		}
	}
	var text bytes.Buffer
	if err := p.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "flat%") || !strings.Contains(text.String(), "NewOrder/btree (user)") {
		t.Errorf("text output malformed:\n%s", text.String())
	}
}

// TestEncodeDecodeRoundTrip checks the JSON form is lossless.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := sampleProfile(5000, 1200)
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Meta != p.Meta {
		t.Errorf("meta mismatch:\n%+v\n%+v", q.Meta, p.Meta)
	}
	if len(q.Frames) != len(p.Frames) {
		t.Fatalf("frame count %d != %d", len(q.Frames), len(p.Frames))
	}
	for i := range p.Frames {
		if q.Frames[i] != p.Frames[i] {
			t.Errorf("frame %d mismatch:\n%+v\n%+v", i, q.Frames[i], p.Frames[i])
		}
	}
}

// TestDiff checks share deltas and deterministic ordering.
func TestDiff(t *testing.T) {
	a := sampleProfile(5000, 1200) // btree share 5000/6200
	b := sampleProfile(1200, 5000) // btree share 1200/6200
	d := Diff(a, b)
	if len(d.Entries) != 2 {
		t.Fatalf("entries = %+v", d.Entries)
	}
	e := d.Entries[0]
	if e.Phase != "btree" && e.Phase != "logcommit" {
		t.Errorf("unexpected top entry %+v", e)
	}
	if math.Abs(math.Abs(e.Delta)-(5000.0/6200-1200.0/6200)) > 1e-12 {
		t.Errorf("delta = %f", e.Delta)
	}
	// Deterministic across repeats.
	d2 := Diff(a, b)
	for i := range d.Entries {
		if d.Entries[i] != d2.Entries[i] {
			t.Errorf("diff not deterministic at %d", i)
		}
	}
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "delta") {
		t.Errorf("diff output malformed:\n%s", buf.String())
	}
}

// TestKindAndPhaseNames pins the frame vocabulary the folded output and
// diff keys depend on.
func TestKindAndPhaseNames(t *testing.T) {
	for _, tc := range []struct {
		k    Kind
		want string
	}{
		{KindOf(odb.NewOrder), "NewOrder"},
		{KindOf(odb.StockLevel), "StockLevel"},
		{KindDBWriter, "DBWriter"},
		{KindKernel, "(kernel)"},
		{KindIdle, "(idle)"},
	} {
		if got := tc.k.String(); got != tc.want {
			t.Errorf("Kind %d = %q, want %q", tc.k, got, tc.want)
		}
	}
	for ph := odb.Phase(0); ph < odb.NumPhases; ph++ {
		name := ph.String()
		back, ok := odb.PhaseFromString(name)
		if !ok || back != ph {
			t.Errorf("phase %d round-trip via %q failed", ph, name)
		}
	}
}

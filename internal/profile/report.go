package profile

import (
	"fmt"
	"io"
	"math"
	"sort"

	"odbscale/internal/odb"
)

// ComponentCycles decomposes a frame's cycles into the Table 3/4 event
// contributions, in real cycles. Residual absorbs the apportionment
// rounding the event model does not explain, so the eight components
// always sum exactly to the frame's cycles.
type ComponentCycles struct {
	Inst     float64 `json:"inst"`
	Branch   float64 `json:"branch"`
	TLB      float64 `json:"tlb"`
	TC       float64 `json:"tc"`
	L2       float64 `json:"l2"`
	L3       float64 `json:"l3"`
	Other    float64 `json:"other"`
	Residual float64 `json:"residual"`
}

func (c *ComponentCycles) add(o ComponentCycles) {
	c.Inst += o.Inst
	c.Branch += o.Branch
	c.TLB += o.TLB
	c.TC += o.TC
	c.L2 += o.L2
	c.L3 += o.L3
	c.Other += o.Other
	c.Residual += o.Residual
}

// Total sums the components; equals the frame cycles it was built from.
func (c ComponentCycles) Total() float64 {
	return c.Inst + c.Branch + c.TLB + c.TC + c.L2 + c.L3 + c.Other + c.Residual
}

// components applies the same stall model the pricing path uses, per
// frame, with the frame's real event counts.
func (p *Profile) components(f *FrameCounters) ComponentCycles {
	st := p.Meta.Stall
	var c ComponentCycles
	c.Inst = float64(f.Instr) * st.InstBase
	c.Other = float64(f.Instr) * p.Meta.OtherCPI
	c.Branch = float64(f.Mispred) * st.BranchMispred
	c.TLB = float64(f.TLBMiss) * st.TLBMiss
	c.TC = float64(f.TCMiss) * st.TCMiss
	if f.L2Miss > f.L3Miss {
		c.L2 = float64(f.L2Miss-f.L3Miss) * st.L2Miss
	}
	c.L3 = float64(f.L3Miss)*(st.L3Miss-st.BusTime1P) + f.BusLatency
	c.Residual = f.Cycles - c.Inst - c.Other - c.Branch - c.TLB - c.TC - c.L2 - c.L3
	return c
}

// PhaseRow is one engine phase's aggregate in the CPI-breakdown table.
type PhaseRow struct {
	Phase  string
	Instr  uint64
	Cycles float64
	CPI    float64 // contribution to whole-run CPI: Cycles / total instructions
	Comp   ComponentCycles
}

// PhaseBreakdown aggregates non-idle frames by engine phase, in phase
// order. Each row's CPI field is the phase's contribution to the
// whole-run CPI, so the rows sum to Profile.CPI exactly.
func (p *Profile) PhaseBreakdown() []PhaseRow {
	totalInstr := p.TotalInstr()
	byPhase := map[string]*PhaseRow{}
	var order []string
	for i := range p.Frames {
		f := &p.Frames[i]
		if f.Idle() {
			continue
		}
		row := byPhase[f.Phase]
		if row == nil {
			row = &PhaseRow{Phase: f.Phase}
			byPhase[f.Phase] = row
			order = append(order, f.Phase)
		}
		row.Instr += f.Instr
		row.Cycles += f.Cycles
		row.Comp.add(p.components(f))
	}
	sort.Slice(order, func(i, j int) bool {
		a, _ := odb.PhaseFromString(order[i])
		b, _ := odb.PhaseFromString(order[j])
		return a < b
	})
	rows := make([]PhaseRow, 0, len(order))
	for _, name := range order {
		row := byPhase[name]
		if totalInstr > 0 {
			row.CPI = row.Cycles / float64(totalInstr)
		}
		rows = append(rows, *row)
	}
	return rows
}

// L3Share is the fraction of all busy cycles the event model attributes
// to L3 misses (memory access plus bus time) — the paper's headline
// ~60% number.
func (p *Profile) L3Share() float64 {
	var l3, total float64
	for i := range p.Frames {
		f := &p.Frames[i]
		if f.Idle() {
			continue
		}
		l3 += p.components(f).L3
		total += f.Cycles
	}
	if total <= 0 {
		return 0
	}
	return l3 / total
}

// WriteCPITable renders the per-phase CPI-breakdown table — the
// profiler's reproduction of the paper's Figure 12 event decomposition,
// resolved to engine phases instead of whole runs.
func (p *Profile) WriteCPITable(w io.Writer) error {
	totalInstr := p.TotalInstr()
	if _, err := fmt.Fprintf(w, "%s  W=%d C=%d P=%d  txns=%d  CPI=%.4f  L3 share=%.1f%%\n",
		labelOr(p.Meta.Label, "profile"), p.Meta.Warehouses, p.Meta.Clients, p.Meta.Processors,
		p.Meta.Txns, p.CPI(), p.L3Share()*100); err != nil {
		return err
	}
	const hdr = "%-10s %7s %8s | %7s %7s %7s %7s %7s %7s %7s %7s\n"
	const row = "%-10s %6.1f%% %8.4f | %7.4f %7.4f %7.4f %7.4f %7.4f %7.4f %7.4f %7.4f\n"
	if _, err := fmt.Fprintf(w, hdr, "phase", "instr", "cpi",
		"inst", "branch", "tlb", "tc", "l2", "l3", "other", "resid"); err != nil {
		return err
	}
	var totCPI float64
	var tot ComponentCycles
	for _, r := range p.PhaseBreakdown() {
		instrPct := 0.0
		if totalInstr > 0 {
			instrPct = 100 * float64(r.Instr) / float64(totalInstr)
		}
		div := float64(totalInstr)
		//lint:ignore floateq zero guard on an integer-derived divisor
		if div == 0 {
			div = 1
		}
		if _, err := fmt.Fprintf(w, row, r.Phase, instrPct, r.CPI,
			r.Comp.Inst/div, r.Comp.Branch/div, r.Comp.TLB/div, r.Comp.TC/div,
			r.Comp.L2/div, r.Comp.L3/div, r.Comp.Other/div, r.Comp.Residual/div); err != nil {
			return err
		}
		totCPI += r.CPI
		tot.add(r.Comp)
	}
	div := float64(totalInstr)
	//lint:ignore floateq zero guard on an integer-derived divisor
	if div == 0 {
		div = 1
	}
	_, err := fmt.Fprintf(w, row, "total", 100.0, totCPI,
		tot.Inst/div, tot.Branch/div, tot.TLB/div, tot.TC/div,
		tot.L2/div, tot.L3/div, tot.Other/div, tot.Residual/div)
	return err
}

// WriteFolded emits folded-stack lines — "txn;phase;mode cycles" — the
// input format of standard flame-graph tooling.
func (p *Profile) WriteFolded(w io.Writer) error {
	sortFrames(p.Frames)
	for i := range p.Frames {
		f := &p.Frames[i]
		n := uint64(math.Round(f.Cycles))
		if n == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s;%s;%s %d\n", f.Txn, f.Phase, f.Mode, n); err != nil {
			return err
		}
	}
	return nil
}

// WriteText emits a pprof-style plain-text listing: frames sorted by
// flat cycles with flat/cumulative percentages. No protobuf involved —
// the listing matches what `pprof -text` prints for a cycles profile.
func (p *Profile) WriteText(w io.Writer) error {
	frames := make([]FrameCounters, len(p.Frames))
	copy(frames, p.Frames)
	sort.SliceStable(frames, func(i, j int) bool { return frames[i].Cycles > frames[j].Cycles })
	var total float64
	for i := range frames {
		total += frames[i].Cycles
	}
	if _, err := fmt.Fprintf(w, "Showing nodes accounting for %.0f cycles, 100%% of %.0f total\n", total, total); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%12s %7s %7s  %s\n", "flat", "flat%", "sum%", "name"); err != nil {
		return err
	}
	if total <= 0 {
		return nil
	}
	var cum float64
	for i := range frames {
		f := &frames[i]
		cum += f.Cycles
		if _, err := fmt.Fprintf(w, "%12.0f %6.2f%% %6.2f%%  %s/%s (%s)\n",
			f.Cycles, 100*f.Cycles/total, 100*cum/total, f.Txn, f.Phase, f.Mode); err != nil {
			return err
		}
	}
	return nil
}

func labelOr(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}

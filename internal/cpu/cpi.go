package cpu

import (
	"fmt"
	"sort"
)

// StallCosts are the fixed per-event CPU stall cycles of the paper's
// Table 3. The L3 cost is adjusted at assembly time by the bus-transaction
// overage relative to the 1P baseline (Table 4's L3 row).
type StallCosts struct {
	InstBase      float64 // cycles per instruction with no stalls
	BranchMispred float64
	TLBMiss       float64
	TCMiss        float64
	L2Miss        float64 // applied to L2 misses that hit in L3
	L3Miss        float64 // memory access portion of an L3 miss
	BusTime1P     float64 // measured IOQ transaction time on 1P
}

// Table3Costs returns the paper's measured/assigned costs.
func Table3Costs() StallCosts {
	return StallCosts{
		InstBase:      0.5,
		BranchMispred: 20,
		TLBMiss:       20,
		TCMiss:        20,
		L2Miss:        16,
		L3Miss:        300,
		BusTime1P:     102,
	}
}

// Events are the microarchitectural event counts of one measurement
// interval, the counts StallCosts price and EventRates normalise. The
// workload synthesizer produces them per executed chunk; the system
// layer's user/OS totals, EMON counters and profile frames sum them.
type Events struct {
	TCMiss     uint64
	L2Miss     uint64 // all references missing L2
	L3Miss     uint64
	CoherMiss  uint64 // L3 misses caused by a remote invalidation
	TLBMiss    uint64
	Mispred    uint64
	BusLatency float64 // summed IOQ latency over the L3 misses
}

// Add accumulates o into e.
func (e *Events) Add(o Events) {
	e.TCMiss += o.TCMiss
	e.L2Miss += o.L2Miss
	e.L3Miss += o.L3Miss
	e.CoherMiss += o.CoherMiss
	e.TLBMiss += o.TLBMiss
	e.Mispred += o.Mispred
	e.BusLatency += o.BusLatency
}

// EventRates are per-instruction event frequencies measured over an
// interval — the inputs to the Table 4 formulas.
type EventRates struct {
	BranchMispredPI float64 // mispredicted branches per instruction
	TLBMissPI       float64
	TCMissPI        float64
	L2MissPI        float64 // all references missing L2
	L3MissPI        float64 // references missing L3 (MPI)
	BusTime         float64 // current mean IOQ bus-transaction time
	OtherPI         float64 // residual stall cycles per instruction
}

// Breakdown is the per-component CPI decomposition of Figure 12.
type Breakdown struct {
	Inst   float64
	Branch float64
	TLB    float64
	TC     float64
	L2     float64
	L3     float64
	Other  float64
}

// Assemble applies the Table 4 formulas to the measured event rates.
func Assemble(c StallCosts, r EventRates) Breakdown {
	l2NotL3 := r.L2MissPI - r.L3MissPI
	if l2NotL3 < 0 {
		l2NotL3 = 0
	}
	busDelta := r.BusTime - c.BusTime1P
	if busDelta < 0 {
		busDelta = 0
	}
	return Breakdown{
		Inst:   c.InstBase,
		Branch: r.BranchMispredPI * c.BranchMispred,
		TLB:    r.TLBMissPI * c.TLBMiss,
		TC:     r.TCMissPI * c.TCMiss,
		L2:     l2NotL3 * c.L2Miss,
		L3:     r.L3MissPI * (c.L3Miss + busDelta),
		Other:  r.OtherPI,
	}
}

// Total returns the computed CPI (sum of the components).
func (b Breakdown) Total() float64 {
	return b.Inst + b.Branch + b.TLB + b.TC + b.L2 + b.L3 + b.Other
}

// Components returns name/value pairs in the paper's Figure 12 order.
func (b Breakdown) Components() []struct {
	Name  string
	Value float64
} {
	return []struct {
		Name  string
		Value float64
	}{
		{"Inst", b.Inst},
		{"Branch", b.Branch},
		{"TLB", b.TLB},
		{"TC", b.TC},
		{"L2", b.L2},
		{"L3", b.L3},
		{"Other", b.Other},
	}
}

// Share returns each component's fraction of the total CPI, keyed by name.
func (b Breakdown) Share() map[string]float64 {
	total := b.Total()
	out := make(map[string]float64, 7)
	if total <= 0 {
		return out
	}
	for _, c := range b.Components() {
		out[c.Name] = c.Value / total
	}
	return out
}

// String renders the breakdown largest-first.
func (b Breakdown) String() string {
	cs := b.Components()
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].Value > cs[j].Value })
	s := fmt.Sprintf("CPI %.3f:", b.Total())
	for _, c := range cs {
		s += fmt.Sprintf(" %s=%.3f", c.Name, c.Value)
	}
	return s
}

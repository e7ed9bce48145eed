package system

import (
	"odbscale/internal/perfmon"
	"odbscale/internal/workload"
)

// counters are the machine's free-running event counters — the hardware
// counters EMON samples. They accumulate from simulation start (scaled
// events are expanded to real counts) and are never reset, exactly like
// the Xeon's counters; the sampler differences successive readings.
type counters struct {
	scale        uint64
	instructions uint64
	osInstr      uint64 // OS-mode share of instructions (the recorder's user/OS IPX split)
	cycles       uint64
	mispred      uint64
	tlbMiss      uint64
	tcMiss       uint64
	l2Miss       uint64
	l3Miss       uint64
}

func (c *counters) note(instr uint64, cycles float64, ev workload.Events) {
	c.instructions += instr
	c.cycles += uint64(cycles)
	c.mispred += ev.Mispred * c.scale
	c.tlbMiss += ev.TLBMiss * c.scale
	c.tcMiss += ev.TCMiss * c.scale
	c.l2Miss += ev.L2Miss * c.scale
	c.l3Miss += ev.L3Miss * c.scale
}

// CounterSource adapts the machine's counters to the perfmon sampler.
// The two bus events are level metrics read from the bus model, as the
// IOQ-derived EMON events are.
func (m *machine) counterSource() perfmon.Source {
	return func(e perfmon.Event) uint64 {
		switch e {
		case perfmon.Instructions:
			return m.ctr.instructions
		case perfmon.BranchMispredictions:
			return m.ctr.mispred
		case perfmon.TLBMiss:
			return m.ctr.tlbMiss
		case perfmon.TCMiss:
			return m.ctr.tcMiss
		case perfmon.L2Miss:
			return m.ctr.l2Miss
		case perfmon.L3Miss:
			return m.ctr.l3Miss
		case perfmon.ClockCycles:
			return m.ctr.cycles
		case perfmon.BusUtilization:
			return uint64(m.fsb.Utilization() * 100)
		case perfmon.BusTransactionTime:
			return uint64(m.fsb.Latency())
		}
		return 0
	}
}

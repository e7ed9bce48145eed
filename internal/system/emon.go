package system

import (
	"odbscale/internal/cpu"
	"odbscale/internal/perfmon"
)

// counters are the machine's free-running event counters — the hardware
// counters EMON samples. They accumulate from simulation start and are
// never reset, exactly like the Xeon's counters; the sampler differences
// successive readings. Events stay scaled: readers multiply by scale,
// which is exact in uint64 arithmetic.
type counters struct {
	scale        uint64
	instructions uint64
	osInstr      uint64 // OS-mode share of instructions (the timeline's user/OS IPX split)
	cycles       uint64
	ev           cpu.Events
}

func (c *counters) note(instr uint64, cycles float64, ev cpu.Events) {
	c.instructions += instr
	c.cycles += uint64(cycles)
	c.ev.Add(ev)
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
			return m.ctr.ev.Mispred * m.ctr.scale
		case perfmon.TLBMiss:
			return m.ctr.ev.TLBMiss * m.ctr.scale
		case perfmon.TCMiss:
			return m.ctr.ev.TCMiss * m.ctr.scale
		case perfmon.L2Miss:
			return m.ctr.ev.L2Miss * m.ctr.scale
		case perfmon.L3Miss:
			return m.ctr.ev.L3Miss * m.ctr.scale
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

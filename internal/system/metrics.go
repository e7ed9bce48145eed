package system

import (
	"fmt"

	"odbscale/internal/cpu"
)

// Metrics are the measured quantities of one configuration run — the raw
// material of every figure and table in the paper.
type Metrics struct {
	Warehouses int
	Clients    int
	Processors int

	Txns           uint64  // transactions completed in the measurement period
	ElapsedSeconds float64 // simulated measurement time

	TPS float64 // transaction throughput

	// Path length (Figures 4-6), instructions per transaction.
	IPX     float64
	UserIPX float64
	OSIPX   float64

	// Cycles per instruction (Figures 9-11).
	CPI     float64
	UserCPI float64
	OSCPI   float64

	// L3 misses per instruction (Figures 13-15).
	MPI     float64
	UserMPI float64
	OSMPI   float64

	// Event rates per instruction feeding the Figure 12 breakdown.
	Rates     cpu.EventRates
	Breakdown cpu.Breakdown

	CPUUtil float64 // Figure 2's regions / Table 1's target
	OSShare float64 // Figure 3: fraction of busy cycles in OS code

	// Disk traffic per transaction in KB (Figure 7).
	ReadKBPerTxn  float64
	WriteKBPerTxn float64 // data writebacks
	LogKBPerTxn   float64

	CtxSwitchPerTxn float64 // Figure 8
	BlocksPerTxn    float64 // scheduler block events (I/O, locks, busy waits)
	BusyWaitsPerTxn float64 // block-contention waits

	BusTime float64 // Figure 16: mean IOQ bus-transaction time, cycles
	BusUtil float64

	CoherenceShare float64 // coherence misses / L3 misses
	BufferHitRatio float64
	DiskUtil       float64
	ReadLatencyMS  float64
	LockConflicts  float64 // per transaction

	// Storage-engine identity and amplification (engine comparisons).
	Engine            string
	WriteAmp          float64 // physical write bytes / logical row-write bytes
	ReadAmp           float64 // executed block reads / logical row reads
	SpaceAmp          float64 // on-disk blocks / live-data blocks
	WriteStallsPerTxn float64 // engine writer throttles (LSM L0 backpressure)
}

// String renders a one-line summary.
func (m Metrics) String() string {
	return fmt.Sprintf("W=%d C=%d P=%d: TPS=%.0f IPX=%.2fM CPI=%.2f MPI=%.4f util=%.2f os=%.2f rd=%.1fKB cs=%.2f bus=%.0f",
		m.Warehouses, m.Clients, m.Processors, m.TPS, m.IPX/1e6, m.CPI, m.MPI,
		m.CPUUtil, m.OSShare, m.ReadKBPerTxn, m.CtxSwitchPerTxn, m.BusTime)
}

// modeAccum accumulates per-mode (user or OS) instruction, cycle and
// event totals during the measurement period.
type modeAccum struct {
	instr  uint64
	cycles float64
	ev     cpu.Events // scaled (multiply by Scale for real counts)
}

func (a *modeAccum) add(instr uint64, cycles float64, ev cpu.Events) {
	a.instr += instr
	a.cycles += cycles
	a.ev.Add(ev)
}

// cpi returns cycles per instruction for the mode.
func (a *modeAccum) cpi() float64 {
	if a.instr == 0 {
		return 0
	}
	return a.cycles / float64(a.instr)
}

// ratePI converts a scaled event count into a real per-instruction rate.
func (a *modeAccum) ratePI(count uint64, scale uint64) float64 {
	if a.instr == 0 {
		return 0
	}
	return float64(count) * float64(scale) / float64(a.instr)
}

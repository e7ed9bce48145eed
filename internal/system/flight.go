package system

import (
	"odbscale/internal/cpu"
	"odbscale/internal/odb"
	"odbscale/internal/qstats"
	"odbscale/internal/sim"
	"odbscale/internal/telemetry"
)

// flightSnap is one reading of the machine's cumulative counters, taken
// by the sampler so successive readings can be differenced — the same
// discipline perfmon applies to the EMON counters.
type flightSnap struct {
	at        sim.Time
	txns      uint64
	instr     uint64
	cycles    uint64
	ev        cpu.Events // scaled, as the counters hold them
	userInstr uint64
	osInstr   uint64
	bcGets    uint64
	bcHits    uint64
	physW     uint64 // engine + eviction write bytes (write-amp numerator)
	logicalW  uint64 // logical row-write bytes (write-amp denominator)
	fgReads   uint64 // executed foreground block reads (read-amp numerator)
	logicalR  uint64 // logical row reads (read-amp denominator)
	busy      []float64
	qs        [qstats.NumStations]qstats.Counts // zero unless WithQueueStats
}

// snapFlight reads the cumulative counters at the current instant.
func (m *machine) snapFlight() flightSnap {
	bc := m.bc.Stats()
	ec := m.se.Counters()
	var qs [qstats.NumStations]qstats.Counts
	if m.qs != nil {
		qs = m.qs.Counts()
	}
	return flightSnap{
		qs:        qs,
		at:        m.eng.Now(),
		txns:      m.totalTxns,
		instr:     m.ctr.instructions,
		cycles:    m.ctr.cycles,
		ev:        m.ctr.ev,
		userInstr: m.ctr.instructions - m.ctr.osInstr,
		osInstr:   m.ctr.osInstr,
		bcGets:    bc.Gets,
		bcHits:    bc.Hits,
		physW:     ec.PhysicalWriteBytes + m.evictWr*odb.BlockSize,
		logicalW:  ec.LogicalWriteBytes,
		fgReads:   m.fgReads,
		logicalR:  ec.LogicalReads,
		busy:      m.sched.PerCPUBusyCycles(),
	}
}

// deltaU64 differences a cumulative counter across an interval; counters
// that were reset mid-interval (the warm-up reset zeroes buffer-cache and
// scheduler statistics) restart the delta from zero instead of wrapping.
func deltaU64(cur, last uint64) uint64 {
	if cur < last {
		return cur
	}
	return cur - last
}

// deltaF64 is deltaU64 for float counters.
func deltaF64(cur, last float64) float64 {
	if cur < last {
		return cur
	}
	return cur - last
}

// flightSample converts two successive snapshots into a timeline sample.
func (m *machine) flightSample(last, cur flightSnap) telemetry.Sample {
	freq := m.cfg.Machine.FreqHz
	intervalCycles := float64(cur.at - last.at)
	intervalSec := intervalCycles / freq

	s := telemetry.Sample{
		SimSeconds: float64(cur.at) / freq,
		Measuring:  m.measuring,
		Txns:       cur.txns,
		BusUtil:    m.fsb.Utilization(),
		RunQueue:   m.sched.ReadyLen(),
		IOInFlight: len(m.inflight),
	}

	dTxns := deltaU64(cur.txns, last.txns)
	dInstr := deltaU64(cur.instr, last.instr)
	dCycles := deltaU64(cur.cycles, last.cycles)
	if intervalSec > 0 {
		s.TPS = float64(dTxns) / intervalSec
	}
	if dInstr > 0 {
		s.CPI = float64(dCycles) / float64(dInstr)
		scale := m.ctr.scale
		s.L2MPI = float64(deltaU64(cur.ev.L2Miss, last.ev.L2Miss)*scale) / float64(dInstr)
		s.L3MPI = float64(deltaU64(cur.ev.L3Miss, last.ev.L3Miss)*scale) / float64(dInstr)
	}
	if dTxns > 0 {
		s.UserIPX = float64(deltaU64(cur.userInstr, last.userInstr)) / float64(dTxns)
		s.OSIPX = float64(deltaU64(cur.osInstr, last.osInstr)) / float64(dTxns)
	}
	if dGets := deltaU64(cur.bcGets, last.bcGets); dGets > 0 {
		s.BufferHit = float64(deltaU64(cur.bcHits, last.bcHits)) / float64(dGets)
	}
	if dLogW := deltaU64(cur.logicalW, last.logicalW); dLogW > 0 {
		s.WriteAmp = float64(deltaU64(cur.physW, last.physW)) / float64(dLogW)
	}
	if dLogR := deltaU64(cur.logicalR, last.logicalR); dLogR > 0 {
		s.ReadAmp = float64(deltaU64(cur.fgReads, last.fgReads)) / float64(dLogR)
	}
	s.SpaceAmp = m.se.Counters().SpaceAmp()

	s.CPUUtil = make([]float64, len(cur.busy))
	for i, b := range cur.busy {
		var prev float64
		if i < len(last.busy) {
			prev = last.busy[i]
		}
		if intervalCycles > 0 {
			u := deltaF64(b, prev) / intervalCycles
			if u < 0 {
				u = 0
			}
			if u > 1 {
				u = 1
			}
			s.CPUUtil[i] = u
		}
	}

	if m.qs != nil {
		servers := m.qs.Servers()
		s.Stations = make([]telemetry.StationSample, qstats.NumStations)
		for id := 0; id < qstats.NumStations; id++ {
			st := &s.Stations[id]
			st.Name = qstats.StationName(id)
			dBusy := deltaF64(cur.qs[id].BusyCycles, last.qs[id].BusyCycles)
			dWait := deltaF64(cur.qs[id].WaitCycles, last.qs[id].WaitCycles)
			dCompl := deltaU64(cur.qs[id].Completions, last.qs[id].Completions)
			if intervalCycles > 0 {
				st.QueueLen = (dBusy + dWait) / intervalCycles
				if n := servers[id]; n > 0 {
					u := dBusy / (intervalCycles * float64(n))
					if u > 1 {
						u = 1
					}
					st.Util = u
				}
			}
			if dCompl > 0 {
				st.WaitMS = dWait / float64(dCompl) / m.cyclesPerMS
			}
			if intervalSec > 0 {
				st.Xps = float64(dCompl) / intervalSec
			}
		}
	}
	return s
}

// startFlight arms the timeline sampler: a self-rescheduling event that
// fires every timeline interval of simulated time, differences the
// cumulative counters and pushes one sample. Entirely driven by the
// discrete-event engine — no wall clock is involved. WithTimeline bounds
// the interval to at least a millisecond; the clamp covers a machine
// clocked below 1 kHz, where that is under one cycle.
func (m *machine) startFlight() {
	interval := sim.Time(m.tl.Interval() * m.cyclesPerMS)
	if interval < 1 {
		interval = 1
	}
	last := m.snapFlight()
	var tick func()
	tick = func() {
		cur := m.snapFlight()
		m.tl.Push(m.flightSample(last, cur))
		last = cur
		m.eng.After(interval, tick)
	}
	m.eng.After(interval, tick)
}

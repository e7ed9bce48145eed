package system

import "odbscale/internal/qstats"

// qsReport derives the queueing-observatory report for the measurement
// window: station accumulators, server counts and the absorbed
// background counters, handed to qstats.Build. Called once, at run end;
// nil-safe only behind a m.qs check.
func (m *machine) qsReport() *qstats.Report {
	bcs := m.bc.Stats()
	lms := m.lm.Stats()
	ecs := m.se.Counters()
	dss := m.disks.StatsNow()
	in := &qstats.Input{
		Meta: qstats.Meta{
			Engine:     m.se.Name(),
			Warehouses: m.cfg.Warehouses,
			Clients:    m.cfg.Clients,
			Processors: m.cfg.Processors,
			Seed:       m.cfg.Seed,
		},
		ElapsedCycles: float64(m.eng.Now() - m.resetAt),
		CyclesPerMS:   m.cyclesPerMS,
		Commits:       m.txns,
		Counts:        m.qs.Counts(),
		Servers:       m.qs.Servers(),
		Background: qstats.Background{
			BufferGets:    bcs.Gets,
			BufferHits:    bcs.Hits,
			LockAcquires:  lms.Acquires,
			LockConflicts: lms.Conflicts,
			LogWrites:     dss.LogWrites,
			Flushes:       ecs.Flushes,
			Compactions:   ecs.Compactions,
			WriteStalls:   ecs.WriteStalls,
		},
	}
	return qstats.Build(in)
}

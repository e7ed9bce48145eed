// Package bus models the shared front-side bus and its In-Order Queue
// (IOQ), the mechanism behind the paper's Figure 16: the average time to
// complete a bus transaction once it enters the IOQ is flat (~102 CPU
// cycles) on a lightly loaded 1P system but grows dramatically on 4P as
// utilization approaches 45%, because every L3 miss from every processor
// shares the same address/data path.
//
// Each transaction occupies the data bus for OccupancyCycles; the IOQ
// latency is the zero-load base latency plus an M/G/1-style queueing term
// driven by the utilization observed over the previous window. Writebacks
// and disk DMA occupy bandwidth (raising utilization) without adding a
// direct CPU stall.
package bus

import (
	"odbscale/internal/qstats"
	"odbscale/internal/sim"
)

// Config sets the bus parameters. The defaults model the paper's
// ServerWorks Grand Champion HE chipset with PC200 DDR memory.
type Config struct {
	// OccupancyCycles is the data-bus occupancy per 64-byte transaction,
	// in CPU cycles (3.2 GB/s at 1.6 GHz -> 64 B / 2 B-per-cycle = 32).
	OccupancyCycles float64
	// BaseLatency is the zero-load IOQ transaction time in CPU cycles;
	// the paper measures 102 for the 1P configuration (Table 3).
	BaseLatency float64
	// QueueFactor scales the queueing delay term; larger values model
	// extra arbitration and snoop-stall costs per unit of utilization.
	QueueFactor float64
	// WindowCycles is the utilization-averaging window. It must be
	// positive; a QueueFactor of 0 is the way to model no queueing.
	WindowCycles sim.Time
	// BandwidthScale multiplies effective bandwidth (divides occupancy);
	// the Itanium2 validation platform has ~1.5x the bus bandwidth. It
	// must be positive.
	BandwidthScale float64
}

// DefaultConfig returns the Xeon-platform parameters.
func DefaultConfig() Config {
	return Config{
		OccupancyCycles: 32,
		BaseLatency:     102,
		QueueFactor:     8,
		WindowCycles:    400_000,
		BandwidthScale:  1,
	}
}

// Stats aggregates bus behaviour over the measurement period.
type Stats struct {
	Transactions  uint64  // CPU-stalling transactions (L3 miss fills)
	Posted        uint64  // writebacks and DMA transfers (non-stalling)
	BusyCycles    float64 // total data-bus occupancy
	LatencySum    float64 // sum of IOQ latencies over Transactions
	ElapsedCycles float64 // measurement period length
}

// MeanLatency returns the average IOQ transaction time (Figure 16's
// metric) in CPU cycles.
func (s Stats) MeanLatency() float64 {
	if s.Transactions == 0 {
		return 0
	}
	return s.LatencySum / float64(s.Transactions)
}

// Utilization returns the fraction of cycles the data bus was busy.
func (s Stats) Utilization() float64 {
	if s.ElapsedCycles <= 0 {
		return 0
	}
	u := s.BusyCycles / s.ElapsedCycles
	if u > 1 {
		return 1
	}
	return u
}

// Bus is a shared front-side bus instance.
type Bus struct {
	cfg       Config
	occupancy float64 // effective occupancy after bandwidth scaling

	windowStart sim.Time
	windowBusy  float64
	util        float64 // utilization of the last completed window

	stats      Stats
	resetAt    sim.Time
	sampleMult float64 // each observed transaction stands for this many

	qs *qstats.Station // optional bus service-center accumulator
}

// New builds a bus. sampleMult compensates for cache line sampling: when
// the cache domain simulates 1/N of all lines, every reported transaction
// represents N real ones for utilization purposes.
func New(cfg Config, sampleMult float64) *Bus {
	if sampleMult <= 0 {
		sampleMult = 1
	}
	return &Bus{cfg: cfg, occupancy: cfg.OccupancyCycles / cfg.BandwidthScale, sampleMult: sampleMult}
}

// SetStation attaches the queueing observatory's bus station. The
// station is defined over observed transactions: each one's service is
// its full sampled-up occupancy (matching the BusyCycles ledger, so the
// utilization law closes) and its wait is the IOQ latency beyond the
// zero-load base — the M/G/1 queueing term.
func (b *Bus) SetStation(st *qstats.Station) { b.qs = st }

// roll closes every window that ended by now. Only the first of them
// saw the busy cycles collected so far; any later one was idle, so util
// is that first window's (capped) utilization when exactly one window
// ended and 0 otherwise.
func (b *Bus) roll(now sim.Time) {
	w := b.cfg.WindowCycles
	if now < b.windowStart+w {
		return
	}
	k := (now - b.windowStart) / w
	b.util = 0
	if k == 1 {
		b.util = b.windowBusy / float64(w)
		if b.util > 0.98 {
			b.util = 0.98
		}
	}
	b.windowBusy = 0
	b.windowStart += k * w
}

func (b *Bus) occupy(now sim.Time, cycles float64) {
	b.roll(now)
	b.windowBusy += cycles
	b.stats.BusyCycles += cycles
}

// Transaction records a CPU-stalling bus transaction (an L3 miss fill)
// entering the IOQ at time now and returns its latency in CPU cycles.
func (b *Bus) Transaction(now sim.Time) float64 {
	b.occupy(now, b.occupancy*b.sampleMult)
	lat := b.Latency()
	b.stats.Transactions++
	b.stats.LatencySum += lat
	if b.qs != nil {
		b.qs.Visit(lat-b.cfg.BaseLatency, b.occupancy*b.sampleMult)
	}
	return lat
}

// Posted records a non-stalling transfer (writeback or DMA) of the given
// number of 64-byte lines; it consumes bandwidth but returns no latency.
func (b *Bus) Posted(now sim.Time, lines float64) {
	b.occupy(now, b.occupancy*lines)
	b.stats.Posted++
	if b.qs != nil {
		b.qs.Visit(0, b.occupancy*lines)
	}
}

// Latency returns the current IOQ transaction time estimate without
// recording a transaction.
func (b *Bus) Latency() float64 {
	u := b.util
	return b.cfg.BaseLatency + b.occupancy*b.cfg.QueueFactor*u/(1-u)
}

// Utilization returns the most recent completed window's utilization.
func (b *Bus) Utilization() float64 { return b.util }

// ResetStats begins a new measurement period at time now.
func (b *Bus) ResetStats(now sim.Time) {
	b.stats = Stats{}
	b.resetAt = now
}

// StatsAt returns the measurement-period statistics as of time now.
func (b *Bus) StatsAt(now sim.Time) Stats {
	s := b.stats
	s.ElapsedCycles = float64(now - b.resetAt)
	return s
}

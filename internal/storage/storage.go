// Package storage models the disk subsystem: an array of independent
// disks with FCFS queues and a seek+transfer service-time model, striped
// data placement, and dedicated log devices. The array reproduces the
// paper's I/O regimes: negligible traffic for cached setups, latency that
// clients must mask in balanced setups, and throughput saturation that
// caps CPU utilization in I/O-bound setups (the 1200-warehouse point of
// Figure 2).
package storage

import (
	"odbscale/internal/qstats"
	"odbscale/internal/sim"
	"odbscale/internal/xrand"
)

// Config describes the disk array. Times are in milliseconds and are
// converted to CPU cycles with CyclesPerMS.
type Config struct {
	DataDisks int
	LogDisks  int
	AccessMS  float64 // average random-access positioning time per read
	// WriteMS is the positioning cost of an asynchronous data write: the
	// DB writer issues writes in batches sorted by disk position, so the
	// effective seek per write is far below a random read's.
	WriteMS     float64
	LogMS       float64 // average sequential log write time
	TransferMS  float64 // per-block transfer time
	CyclesPerMS float64
	Jitter      float64 // fractional exponential jitter on service times
}

// DefaultConfig models the paper's 26 Ultra320 SCSI drives at 1.6 GHz:
// 24 data disks plus 2 log devices.
func DefaultConfig() Config {
	return Config{
		DataDisks:   24,
		LogDisks:    2,
		AccessMS:    6.5,
		WriteMS:     2.2,
		LogMS:       0.6,
		TransferMS:  0.2,
		CyclesPerMS: 1.6e6,
		Jitter:      0.25,
	}
}

// Stats aggregates array behaviour over a measurement period.
type Stats struct {
	Reads          uint64
	Writes         uint64 // data writebacks
	BgReads        uint64 // background (maintenance) reads: compaction input
	LogWrites      uint64
	ReadLatencySum float64 // cycles, queue + service
	BusyCycles     float64 // summed across data disks
	Elapsed        float64
	MaxQueue       int
}

// MeanReadLatency returns the average read completion latency in cycles.
func (s Stats) MeanReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return s.ReadLatencySum / float64(s.Reads)
}

// Utilization returns mean data-disk utilization in [0, 1].
func (s Stats) Utilization(dataDisks int) float64 {
	if s.Elapsed <= 0 || dataDisks == 0 {
		return 0
	}
	u := s.BusyCycles / (s.Elapsed * float64(dataDisks))
	if u > 1 {
		return 1
	}
	return u
}

type disk struct {
	nextFree sim.Time
	queueLen int
}

// Array is the simulated disk array.
type Array struct {
	cfg   Config
	eng   *sim.Engine
	rng   *xrand.Rand
	data  []disk
	log   []disk
	logRR int

	stats   Stats
	resetAt sim.Time

	// Optional queueing-observatory stations: one for the data disks,
	// one for the log devices. FCFS makes wait and service known at
	// enqueue time, so each operation is a fused Visit.
	qsData *qstats.Station
	qsLog  *qstats.Station
}

// New builds an array attached to the simulation engine.
func New(cfg Config, eng *sim.Engine, rng *xrand.Rand) *Array {
	if cfg.DataDisks <= 0 || cfg.LogDisks <= 0 {
		panic("storage: need at least one data and one log disk")
	}
	return &Array{
		cfg:  cfg,
		eng:  eng,
		rng:  rng,
		data: make([]disk, cfg.DataDisks),
		log:  make([]disk, cfg.LogDisks),
	}
}

// SetStations attaches the observatory's disk and log stations.
func (a *Array) SetStations(data, log *qstats.Station) {
	a.qsData = data
	a.qsLog = log
}

func (a *Array) service(meanMS float64) sim.Time {
	ms := meanMS
	if a.cfg.Jitter > 0 {
		ms = meanMS*(1-a.cfg.Jitter) + a.rng.Exp(meanMS*a.cfg.Jitter)
	}
	return sim.Time(ms*a.cfg.CyclesPerMS + 0.5)
}

// enqueue schedules one operation on d and returns its completion time.
func (a *Array) enqueue(d *disk, svc sim.Time, busy bool) sim.Time {
	now := a.eng.Now()
	start := d.nextFree
	if start < now {
		start = now
	}
	complete := start + svc
	d.nextFree = complete
	d.queueLen++
	if d.queueLen > a.stats.MaxQueue {
		a.stats.MaxQueue = d.queueLen
	}
	if busy {
		a.stats.BusyCycles += float64(svc)
	}
	a.eng.At(complete, func() { d.queueLen-- })
	return complete
}

// Read issues a synchronous block read; done runs at completion time.
// The block's disk is chosen by striping on the block number.
func (a *Array) Read(block uint64, done func()) {
	d := &a.data[int(block)%len(a.data)]
	svc := a.service(a.cfg.AccessMS + a.cfg.TransferMS)
	complete := a.enqueue(d, svc, true)
	issued := a.eng.Now()
	a.stats.Reads++
	if a.qsData != nil {
		a.qsData.Visit(float64(complete-svc-issued), float64(svc))
	}
	a.eng.At(complete, func() {
		a.stats.ReadLatencySum += float64(complete - issued)
		if done != nil {
			done()
		}
	})
}

// BackgroundRead issues an asynchronous maintenance read (compaction
// input); no caller waits on it. It occupies the disk like any read but
// is counted separately and excluded from foreground read latency, so
// engine maintenance does not pollute the paper's read-latency metric.
func (a *Array) BackgroundRead(block uint64) {
	d := &a.data[int(block)%len(a.data)]
	svc := a.service(a.cfg.AccessMS + a.cfg.TransferMS)
	complete := a.enqueue(d, svc, true)
	a.stats.BgReads++
	if a.qsData != nil {
		// Background operations delay no transaction while they queue, so
		// only their service (resource consumption) lands in the station —
		// the posted-write discipline the bus station applies. Their queue
		// wait would otherwise swamp the foreground wait-demand ranking.
		a.qsData.Visit(0, float64(svc))
	}
	_ = complete
}

// Write issues an asynchronous data-block writeback (the DB writer's
// work); no caller waits on it.
func (a *Array) Write(block uint64) {
	d := &a.data[int(block)%len(a.data)]
	svc := a.service(a.cfg.WriteMS + a.cfg.TransferMS)
	complete := a.enqueue(d, svc, true)
	a.stats.Writes++
	if a.qsData != nil {
		// Posted like BackgroundRead: service only, no queue wait.
		a.qsData.Visit(0, float64(svc))
	}
	_ = complete
}

// LogWrite issues a sequential write of n blocks to the next log device;
// done (if non-nil) runs when the write is durable, for commits that wait.
func (a *Array) LogWrite(blocks int, done func()) {
	d := &a.log[a.logRR]
	a.logRR = (a.logRR + 1) % len(a.log)
	svc := a.service(a.cfg.LogMS + float64(blocks)*a.cfg.TransferMS)
	complete := a.enqueue(d, svc, false)
	a.stats.LogWrites++
	if a.qsLog != nil {
		a.qsLog.Visit(float64(complete-svc-a.eng.Now()), float64(svc))
	}
	if done != nil {
		a.eng.At(complete, done)
	} else {
		_ = complete
	}
}

// ResetStats starts a new measurement period.
func (a *Array) ResetStats() {
	a.stats = Stats{}
	a.resetAt = a.eng.Now()
}

// StatsNow returns statistics for the current measurement period.
func (a *Array) StatsNow() Stats {
	s := a.stats
	s.Elapsed = float64(a.eng.Now() - a.resetAt)
	return s
}

// DataDisks returns the number of data disks.
func (a *Array) DataDisks() int { return len(a.data) }

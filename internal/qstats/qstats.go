// Package qstats is the queueing observatory: every shared service
// center in the simulation — the CPU run queues, the front-side bus,
// the data-disk and log-disk arrays, the lock manager, the buffer
// cache's busy-wait path and the storage engine's writer-throttle path
// — accumulates arrivals, completions, busy time and waiting time into
// a Station, and the observatory derives per-station utilization,
// throughput, mean service time, mean wait, mean queue length and
// service demand, checks the operational laws (Little's law N = X·R
// and the utilization law U = X·S) as a per-run self-audit of the
// simulator's own bookkeeping, and ranks stations to name the
// bottleneck and its headroom.
//
// The accumulators are strictly observational: stations never draw
// randomness and never schedule simulation events, so a run with
// qstats attached is bit-identical to one without (pinned in
// internal/system). All hot-path accumulation is inline arithmetic —
// no allocation, no locks — on the simulation goroutine; the derived
// report is built once, when the run ends.
package qstats

import "sync"

// Station identifiers. The set is fixed: every Collector carries one
// accumulator per identifier, and reports list them in this order.
const (
	CPU        = iota // scheduler episodes: run-queue wait + on-CPU cycles
	Bus               // FSB/IOQ transactions: queueing delay + occupancy
	Disk              // data-disk operations: FCFS queue wait + service
	Log               // log-device writes: FCFS queue wait + service
	LockMgr           // lock-manager queue: grant wait (delay center)
	BufferPool        // buffer busy waits (delay center)
	Engine            // engine writer throttles / write stalls (delay center)
	NumStations
)

// stationNames indexes the canonical station names.
var stationNames = [NumStations]string{
	"cpu", "bus", "disk", "log", "lockmgr", "bufferpool", "engine",
}

// StationName returns the canonical name of a station identifier.
func StationName(id int) string {
	if id < 0 || id >= NumStations {
		return "unknown"
	}
	return stationNames[id]
}

// RoleDriver marks the station that drives the closed system (the CPU:
// processes between waits are *using* it, so its wait is demand, not a
// resource holding throughput back); RoleResource marks everything
// else, the stations the bottleneck ranking considers.
const (
	RoleDriver   = "driver"
	RoleResource = "resource"
)

// Role returns the ranking role of a station identifier.
func Role(id int) string {
	if id == CPU {
		return RoleDriver
	}
	return RoleResource
}

// Station accumulates one service center's visit statistics. All times
// are CPU cycles. A visit is one customer's pass through the center:
// Arrive marks the entry, Complete folds in the measured wait and
// service once both are known (retro-dated sites call it at the next
// scheduling boundary), and Visit is the fused form for sites that
// know both at once. Single-writer: only the simulation goroutine
// touches a Station.
type Station struct {
	arrivals    uint64
	completions uint64
	busy        float64 // service cycles of completed visits
	waiting     float64 // wait cycles of completed visits
}

// Arrive records one customer entering the center.
func (s *Station) Arrive() { s.arrivals++ }

// Complete records one customer leaving the center after waiting wait
// cycles and holding a server for service cycles.
func (s *Station) Complete(wait, service float64) {
	s.completions++
	s.waiting += wait
	s.busy += service
}

// Visit records an arrival and its completion in one call, for sites
// where the queue discipline makes both known at arrival time (FCFS
// disk queues, the bus occupancy model).
func (s *Station) Visit(wait, service float64) {
	s.arrivals++
	s.completions++
	s.waiting += wait
	s.busy += service
}

// Counts is a snapshot of one station's raw accumulators.
type Counts struct {
	Arrivals    uint64
	Completions uint64
	BusyCycles  float64
	WaitCycles  float64
}

// Counts returns the station's current accumulators.
func (s *Station) Counts() Counts {
	return Counts{
		Arrivals:    s.arrivals,
		Completions: s.completions,
		BusyCycles:  s.busy,
		WaitCycles:  s.waiting,
	}
}

// reset zeroes the accumulators at measurement start.
func (s *Station) reset() {
	s.arrivals = 0
	s.completions = 0
	s.busy = 0
	s.waiting = 0
}

// Collector owns the station set for one run. The simulation side
// reaches the stations directly (single goroutine, no locks); the run's
// report is published under the mutex, so Report is safe from any
// goroutine.
type Collector struct {
	stations [NumStations]Station
	servers  [NumStations]int

	mu   sync.Mutex
	last *Report
}

// NewCollector returns an empty collector. The system layer binds the
// server counts (CPUs, disks) when the run starts.
func NewCollector() *Collector { return &Collector{} }

// Station returns the accumulator for one station identifier.
// Simulation-side only.
func (c *Collector) Station(id int) *Station { return &c.stations[id] }

// SetServers records how many servers a station has; 0 marks a delay
// center (no utilization law applies).
func (c *Collector) SetServers(id, n int) { c.servers[id] = n }

// Servers returns the per-station server counts.
func (c *Collector) Servers() [NumStations]int { return c.servers }

// ResetStations zeroes every station at measurement start.
// Simulation-side only.
func (c *Collector) ResetStations() {
	for i := range c.stations {
		c.stations[i].reset()
	}
}

// Counts snapshots every station's raw accumulators.
// Simulation-side only.
func (c *Collector) Counts() [NumStations]Counts {
	var out [NumStations]Counts
	for i := range c.stations {
		out[i] = c.stations[i].Counts()
	}
	return out
}

// Publish installs a derived report as the collector's current one.
// The simulation side calls it once, at run end.
func (c *Collector) Publish(r *Report) {
	c.mu.Lock()
	c.last = r
	c.mu.Unlock()
}

// Report returns the published report, or nil before the run has
// published one. Safe from any goroutine.
func (c *Collector) Report() *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

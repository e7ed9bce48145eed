package telemetry

import "sync"

// Sample is one timeline observation: the state of the simulated
// machine over one sampler interval (rates) or at its closing instant
// (levels). All times are simulated; nothing here touches wall time.
type Sample struct {
	// SimSeconds is the simulated time of the sample, measured from
	// simulation start.
	SimSeconds float64 `json:"t"`
	// Measuring reports whether the measurement period (post warm-up)
	// was active at the sample.
	Measuring bool `json:"measuring"`

	// Interval rates.
	TPS       float64   `json:"tps"`        // commits per simulated second
	CPI       float64   `json:"cpi"`        // cycles per instruction, all modes
	UserIPX   float64   `json:"user_ipx"`   // user instructions per transaction
	OSIPX     float64   `json:"os_ipx"`     // OS instructions per transaction
	L2MPI     float64   `json:"l2_mpi"`     // L2 misses per instruction
	L3MPI     float64   `json:"l3_mpi"`     // L3 misses per instruction
	BufferHit float64   `json:"buffer_hit"` // buffer-cache hit ratio
	WriteAmp  float64   `json:"write_amp"`  // interval physical/logical write bytes
	ReadAmp   float64   `json:"read_amp"`   // interval block reads per logical row read
	CPUUtil   []float64 `json:"cpu_util"`   // per-CPU busy fraction

	// Levels at the sample instant.
	BusUtil    float64 `json:"bus_util"`     // FSB utilization
	RunQueue   int     `json:"run_queue"`    // ready-queue depth
	IOInFlight int     `json:"io_in_flight"` // outstanding data-block reads
	SpaceAmp   float64 `json:"space_amp"`    // on-disk blocks per live-data block
	Txns       uint64  `json:"txns"`         // cumulative commits since simulation start

	// Stations carries the queueing observatory's per-interval station
	// readings; empty unless the run attached WithQueueStats.
	Stations []StationSample `json:"stations,omitempty"`
}

// StationSample is one service center's interval reading: interval
// utilization, time-averaged queue length, mean wait per completed
// visit, and completion throughput.
type StationSample struct {
	Name     string  `json:"name"`
	Util     float64 `json:"util"`
	QueueLen float64 `json:"queue_len"`
	WaitMS   float64 `json:"wait_ms"`
	Xps      float64 `json:"xps"`
}

// Timeline is a bounded ring of samples: pushes beyond the capacity
// overwrite the oldest entries, and Dropped counts how many were lost.
// Its mutex keeps a read consistent with the writer's pushes.
type Timeline struct {
	mu      sync.Mutex
	buf     []Sample
	head    int // next write position
	n       int // live entries
	dropped uint64
}

// NewTimeline returns a ring holding at most capacity samples.
func NewTimeline(capacity int) *Timeline {
	if capacity < 1 {
		capacity = 1
	}
	return &Timeline{buf: make([]Sample, capacity)}
}

// Push appends a sample, evicting the oldest when full.
func (tl *Timeline) Push(s Sample) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.buf[tl.head] = s
	tl.head = (tl.head + 1) % len(tl.buf)
	if tl.n < len(tl.buf) {
		tl.n++
	} else {
		tl.dropped++
	}
}

// Snapshot returns the retained samples oldest-first.
func (tl *Timeline) Snapshot() []Sample {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	out := make([]Sample, 0, tl.n)
	start := tl.head - tl.n
	if start < 0 {
		start += len(tl.buf)
	}
	for i := 0; i < tl.n; i++ {
		out = append(out, tl.buf[(start+i)%len(tl.buf)])
	}
	return out
}

// Dropped returns how many samples the ring has evicted.
func (tl *Timeline) Dropped() uint64 {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.dropped
}

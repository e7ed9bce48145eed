// Package telemetry holds the timeline of a simulator run — samples of
// the simulated machine taken on simulated time, plus the run's warm-up
// and measure phase spans — with its JSON and CSV file forms, and the
// run manifest written next to campaign checkpoints and by odbrun -json.
//
// The package is under the odblint determinism rule: nothing here may
// read the wall clock. Sample timestamps are simulated seconds supplied
// by the system layer, and manifest wall-time fields are stamped by
// callers (cmd/ binaries, or the campaign runner through its injected
// clock). A Timeline is written by the simulation and read by the run's
// caller once the run is over.
package telemetry

// defaultIntervalMS is the timeline's sample interval, in simulated
// milliseconds, when NewTimeline is given 0.
const defaultIntervalMS = 100

// timelineCap bounds the retained timeline samples: one minute of
// simulated time at the default interval.
const timelineCap = 600

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

// PhaseSpan records one completed lifecycle phase of a run.
type PhaseSpan struct {
	Name       string  `json:"name"`
	SimSeconds float64 `json:"sim_seconds"`
	Txns       uint64  `json:"txns"`
}

// phaseNames names a run's phases in the order they close.
var phaseNames = [...]string{"warmup", "measure"}

// Timeline is one run's timeline: a bounded ring of samples taken every
// Interval of simulated time — pushes beyond the capacity overwrite the
// oldest entries, and the dump counts how many were lost — and the
// run's phase spans.
type Timeline struct {
	intervalMS float64

	buf     []Sample
	head    int // next write position
	n       int // live entries
	dropped uint64

	phases   []PhaseSpan
	phaseAt  float64 // sim seconds when the phase in progress began
	phaseTxn uint64  // total txns when the phase in progress began
}

// NewTimeline returns a timeline sampling every intervalMS simulated
// milliseconds, 0 meaning 100 ms. system.WithTimeline rejects any other
// interval outside its bounds.
func NewTimeline(intervalMS float64) *Timeline {
	//lint:ignore floateq zero is the unset sentinel, not a computed value
	if intervalMS == 0 {
		intervalMS = defaultIntervalMS
	}
	return &Timeline{intervalMS: intervalMS, buf: make([]Sample, timelineCap)}
}

// Interval returns the sampling interval in simulated milliseconds.
func (tl *Timeline) Interval() float64 { return tl.intervalMS }

// Push appends a sample, evicting the oldest when full.
func (tl *Timeline) Push(s Sample) {
	tl.buf[tl.head] = s
	tl.head = (tl.head + 1) % len(tl.buf)
	if tl.n < len(tl.buf) {
		tl.n++
	} else {
		tl.dropped++
	}
}

// EndPhase closes the phase in progress at the given simulated time,
// after totalTxns commits since simulation start. The system layer calls
// it at the warm-up reset, closing "warmup", and at run end, closing
// "measure"; a run that ends before its reset closes "warmup" only.
func (tl *Timeline) EndPhase(simSeconds float64, totalTxns uint64) {
	tl.phases = append(tl.phases, PhaseSpan{
		Name:       phaseNames[len(tl.phases)],
		SimSeconds: simSeconds - tl.phaseAt,
		Txns:       totalTxns - tl.phaseTxn,
	})
	tl.phaseAt, tl.phaseTxn = simSeconds, totalTxns
}

// Dump returns the timeline's document: the closed phases and the
// retained samples oldest-first.
func (tl *Timeline) Dump() *TimelineDump {
	d := &TimelineDump{
		Phases:  tl.phases,
		Dropped: tl.dropped,
		Samples: make([]Sample, 0, tl.n),
	}
	start := tl.head - tl.n
	if start < 0 {
		start += len(tl.buf)
	}
	for i := 0; i < tl.n; i++ {
		d.Samples = append(d.Samples, tl.buf[(start+i)%len(tl.buf)])
	}
	return d
}

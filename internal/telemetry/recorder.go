package telemetry

import "sync"

// defaultIntervalMS is the timeline's sample interval, in simulated
// milliseconds, when NewRecorder is given none.
const defaultIntervalMS = 100

// timelineCap bounds the retained timeline samples: one minute of
// simulated time at the default interval.
const timelineCap = 600

// RunPhase names a run's lifecycle stage.
type RunPhase string

// The phases a run moves through.
const (
	PhaseWarmup  RunPhase = "warmup"
	PhaseMeasure RunPhase = "measure"
	PhaseDone    RunPhase = "done"
)

// PhaseSpan records one completed lifecycle phase.
type PhaseSpan struct {
	Name       string  `json:"name"`
	SimSeconds float64 `json:"sim_seconds"`
	Txns       uint64  `json:"txns"`
}

// Recorder is the flight recorder of one simulator run: the timeline
// ring and the run's phase spans. The system layer writes on simulated
// time; the run's caller reads the results once the run is over.
// Transaction latency is the span tracer's record (package txtrace),
// which counts measured commits only.
type Recorder struct {
	intervalMS float64

	mu       sync.Mutex
	timeline *Timeline
	phase    RunPhase // the phase in progress
	phases   []PhaseSpan
	phaseAt  float64 // sim seconds when the current phase began
	phaseTxn uint64  // total txns when the current phase began
}

// NewRecorder builds a recorder sampling the timeline every intervalMS
// simulated milliseconds; a non-positive interval means 100 ms.
func NewRecorder(intervalMS float64) *Recorder {
	if intervalMS <= 0 {
		intervalMS = defaultIntervalMS
	}
	return &Recorder{
		intervalMS: intervalMS,
		phase:      PhaseWarmup,
		timeline:   NewTimeline(timelineCap),
	}
}

// Interval returns the sampling interval in simulated milliseconds.
func (r *Recorder) Interval() float64 { return r.intervalMS }

// PushSample appends a timeline sample.
func (r *Recorder) PushSample(s Sample) { r.timeline.Push(s) }

// MarkPhase closes the current phase at the given simulated time, after
// totalTxns commits since simulation start, and enters the next one.
// The system layer calls it at the warm-up reset and at run end.
func (r *Recorder) MarkPhase(next RunPhase, simSeconds float64, totalTxns uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.phases = append(r.phases, PhaseSpan{
		Name:       string(r.phase),
		SimSeconds: simSeconds - r.phaseAt,
		Txns:       totalTxns - r.phaseTxn,
	})
	r.phaseAt = simSeconds
	r.phaseTxn = totalTxns
	r.phase = next
}

// Phases returns the completed phase spans.
func (r *Recorder) Phases() []PhaseSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]PhaseSpan(nil), r.phases...)
}

// Timeline returns the retained samples oldest-first.
func (r *Recorder) Timeline() []Sample { return r.timeline.Snapshot() }

// TimelineDropped returns how many samples the ring evicted.
func (r *Recorder) TimelineDropped() uint64 { return r.timeline.Dropped() }

package telemetry

import (
	"sort"
	"sync"
)

// Config sizes the flight recorder of one simulator run.
type Config struct {
	// SampleIntervalMS is the simulated time between timeline samples,
	// in milliseconds (default 100).
	SampleIntervalMS float64 `json:"sample_interval_ms"`
	// RingCap bounds the retained timeline samples (default 600 — one
	// minute of simulated time at the default interval).
	RingCap int `json:"ring_cap"`
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.SampleIntervalMS <= 0 {
		c.SampleIntervalMS = 100
	}
	if c.RingCap <= 0 {
		c.RingCap = 600
	}
	return c
}

// RunPhase names a run's lifecycle stage.
type RunPhase string

// The phases a run moves through.
const (
	PhaseWarmup  RunPhase = "warmup"
	PhaseMeasure RunPhase = "measure"
	PhaseDone    RunPhase = "done"
)

// RunProgress is the live position of one simulator run.
type RunProgress struct {
	Phase        RunPhase `json:"phase"`
	TotalTxns    uint64   `json:"total_txns"`    // commits since simulation start
	MeasuredTxns uint64   `json:"measured_txns"` // commits inside the measurement period
	TargetTxns   uint64   `json:"target_txns"`   // MeasureTxns goal
	SimSeconds   float64  `json:"sim_seconds"`   // simulated time at the last update
}

// PhaseSpan records one completed lifecycle phase.
type PhaseSpan struct {
	Name       string  `json:"name"`
	SimSeconds float64 `json:"sim_seconds"`
	Txns       uint64  `json:"txns"`
}

// Recorder is the flight recorder of one simulator run: the timeline
// ring, per-transaction-type latency histograms, and run progress. The
// system layer writes on simulated time; readers take snapshots, which
// stay consistent even while a run is writing.
type Recorder struct {
	cfg Config

	mu       sync.Mutex
	timeline *Timeline
	hists    map[string]*Histogram
	progress RunProgress
	phases   []PhaseSpan
	phaseAt  float64 // sim seconds when the current phase began
	phaseTxn uint64  // total txns when the current phase began
}

// NewRecorder builds a recorder; zero-valued config fields take their
// defaults.
func NewRecorder(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:      cfg,
		timeline: NewTimeline(cfg.RingCap),
		hists:    make(map[string]*Histogram),
	}
}

// Interval returns the configured sampling interval in simulated
// milliseconds.
func (r *Recorder) Interval() float64 { return r.cfg.SampleIntervalMS }

// SetTarget declares the run's measured-transaction goal.
func (r *Recorder) SetTarget(txns uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.progress.TargetTxns = txns
	r.progress.Phase = PhaseWarmup
}

// ObserveSpan records one completed transaction of the given type with
// its latency in simulated microseconds.
func (r *Recorder) ObserveSpan(txnType string, latencyUS uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[txnType]
	if h == nil {
		h = &Histogram{}
		r.hists[txnType] = h
	}
	h.Observe(latencyUS)
}

// NoteCommit advances the progress counters.
func (r *Recorder) NoteCommit(measuring bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.progress.TotalTxns++
	if measuring {
		r.progress.MeasuredTxns++
	}
}

// PushSample appends a timeline sample and refreshes the progress
// clock.
func (r *Recorder) PushSample(s Sample) {
	r.timeline.Push(s)
	r.mu.Lock()
	r.progress.SimSeconds = s.SimSeconds
	r.mu.Unlock()
}

// MarkPhase closes the current phase at the given simulated time and
// enters the next one. The system layer calls it at the warm-up reset
// and at run end.
func (r *Recorder) MarkPhase(next RunPhase, simSeconds float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := string(r.progress.Phase)
	if name == "" {
		name = string(PhaseWarmup)
	}
	r.phases = append(r.phases, PhaseSpan{
		Name:       name,
		SimSeconds: simSeconds - r.phaseAt,
		Txns:       r.progress.TotalTxns - r.phaseTxn,
	})
	r.phaseAt = simSeconds
	r.phaseTxn = r.progress.TotalTxns
	r.progress.Phase = next
	r.progress.SimSeconds = simSeconds
}

// Progress returns the live run position.
func (r *Recorder) Progress() RunProgress {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.progress
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

// HistogramNames returns the observed transaction types, sorted.
func (r *Recorder) HistogramNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.hists))
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// HistogramSnapshot returns a deep copy of one transaction type's
// histogram, or nil when the type was never observed.
func (r *Recorder) HistogramSnapshot(txnType string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[txnType]
	if h == nil {
		return nil
	}
	return h.Clone()
}

// Histograms returns deep copies of every per-type histogram.
func (r *Recorder) Histograms() map[string]*Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		out[name] = h.Clone()
	}
	return out
}

package campaign

import (
	"encoding/json"
	"fmt"

	"odbscale/internal/profile"
	"odbscale/internal/qstats"
	"odbscale/internal/system"
	"odbscale/internal/txtrace"
)

// An Instrument observes every measurement run of a campaign and owns
// one payload kind in the checkpoint. Tuner probes run without
// instruments.
type Instrument interface {
	// Kind is the instrument's key in each checkpoint point's "flight"
	// map ("profile", "spans", "qstats").
	Kind() string
	// Start attaches the instrument to the measurement run of the named
	// point.
	Start(point string, cfg system.Config) Attached
	// Restore reinstates a resumed point's payload from the checkpoint.
	Restore(point string, raw json.RawMessage) error
}

// Attached is an instrument's handle on one measurement run.
type Attached interface {
	// Option is what system.Run attaches for the instrument.
	Option() system.Option
	// Finish closes the run. ok reports whether it succeeded; the
	// returned payload is persisted in the checkpoint, and nil persists
	// nothing.
	Finish(ok bool) (json.RawMessage, error)
}

// stored is the shape shared by the profiler, the span tracer and the
// queueing observatory: each run gets a fresh collector C, and a
// successful run's payload T, labelled with its point name, lands in a
// Store and in the checkpoint.
type stored[T, C any] struct {
	kind    string
	store   *Store[T]
	collect func() C
	option  func(C) system.Option
	payload func(col C, point string) (T, bool)
}

func (s *stored[T, C]) Kind() string { return s.kind }

func (s *stored[T, C]) Start(point string, _ system.Config) Attached {
	return &storedRun[T, C]{in: s, point: point, col: s.collect()}
}

func (s *stored[T, C]) Restore(point string, raw json.RawMessage) error {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return fmt.Errorf("campaign: %s payload: %w", s.kind, err)
	}
	s.store.Put(point, v)
	return nil
}

// storedRun is a stored instrument attached to one run.
type storedRun[T, C any] struct {
	in    *stored[T, C]
	point string
	col   C
}

func (r *storedRun[T, C]) Option() system.Option { return r.in.option(r.col) }

func (r *storedRun[T, C]) Finish(ok bool) (json.RawMessage, error) {
	if !ok {
		return nil, nil
	}
	v, has := r.in.payload(r.col, r.point)
	if !has {
		return nil, nil
	}
	r.in.store.Put(r.point, v)
	return json.Marshal(v)
}

// Profiles is the cycle-attribution profiler instrument: every
// measurement run executes with system.WithProfiler and a fresh
// collector, and each point's profile lands in st and the checkpoint.
func Profiles(st *Store[*profile.Profile]) Instrument {
	return &stored[*profile.Profile, *profile.Collector]{
		kind: "profile", store: st,
		collect: profile.NewCollector,
		option:  system.WithProfiler,
		payload: func(col *profile.Collector, point string) (*profile.Profile, bool) {
			p := col.Profile()
			p.Meta.Label = point
			return p, true
		},
	}
}

// Spans is the per-transaction span tracer instrument: every
// measurement run executes with system.WithSpans and a fresh tracer
// sampling by cfg, and each point's trace dump lands in st and the
// checkpoint.
func Spans(cfg txtrace.Config, st *Store[*txtrace.Dump]) Instrument {
	return &stored[*txtrace.Dump, *txtrace.Tracer]{
		kind: "spans", store: st,
		collect: func() *txtrace.Tracer { return txtrace.NewTracer(cfg) },
		option:  system.WithSpans,
		payload: func(tr *txtrace.Tracer, point string) (*txtrace.Dump, bool) {
			d := tr.Dump()
			d.Meta.Label = point
			return d, true
		},
	}
}

// QueueStats is the queueing-observatory instrument: every measurement
// run executes with system.WithQueueStats and a fresh collector, and
// each point's station report lands in st and the checkpoint.
func QueueStats(st *Store[*qstats.Report]) Instrument {
	return &stored[*qstats.Report, *qstats.Collector]{
		kind: "qstats", store: st,
		collect: qstats.NewCollector,
		option:  system.WithQueueStats,
		payload: func(qc *qstats.Collector, point string) (*qstats.Report, bool) {
			rep := qc.Report()
			if rep == nil {
				return nil, false
			}
			rep.Meta.Label = point
			return rep, true
		},
	}
}

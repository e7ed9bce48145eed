package campaign

import (
	"encoding/json"
	"fmt"
	"io"

	"odbscale/internal/profile"
	"odbscale/internal/qstats"
	"odbscale/internal/system"
	"odbscale/internal/telemetry"
	"odbscale/internal/txtrace"
)

// An Instrument observes every measurement run of a campaign and owns
// one payload kind in the checkpoint. Tuner probes run without
// instruments.
type Instrument interface {
	// Kind is the instrument's key in each checkpoint point's "flight"
	// map ("profile", "spans", "qstats", "timeline").
	Kind() string
	// Start attaches the instrument to the measurement run of the named
	// point; the name labels the payload.
	Start(point string) Attached
	// Write decodes one payload of the kind and writes it in the kind's
	// own file format. The runner also decodes every resumed payload
	// through it, so a checkpoint that does not decode fails the
	// campaign.
	Write(w io.Writer, raw json.RawMessage) error
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

// stored is the shape shared by the profiler, the span tracer, the
// queueing observatory and the timeline: each run gets a fresh
// collector C, and a successful run's payload S, labelled with its point
// name, is marshalled into the checkpoint and written back out by
// encode.
type stored[S, C any] struct {
	kind    string
	collect func() C
	option  func(C) system.Option
	payload func(col C, point string) *S
	encode  func(*S, io.Writer) error
}

func (s *stored[S, C]) Kind() string { return s.kind }

func (s *stored[S, C]) Start(point string) Attached {
	return &storedRun[S, C]{in: s, point: point, col: s.collect()}
}

// Write decodes raw and re-encodes it: the kind's encoder, not the raw
// JSON, fixes the file's layout (profile.Encode sorts frames).
func (s *stored[S, C]) Write(w io.Writer, raw json.RawMessage) error {
	v := new(S)
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("campaign: %s payload: %w", s.kind, err)
	}
	return s.encode(v, w)
}

// storedRun is a stored instrument attached to one run.
type storedRun[S, C any] struct {
	in    *stored[S, C]
	point string
	col   C
}

func (r *storedRun[S, C]) Option() system.Option { return r.in.option(r.col) }

func (r *storedRun[S, C]) Finish(ok bool) (json.RawMessage, error) {
	if !ok {
		return nil, nil
	}
	v := r.in.payload(r.col, r.point)
	if v == nil {
		return nil, nil
	}
	return json.Marshal(v)
}

// Profiles is the cycle-attribution profiler instrument: every
// measurement run executes with system.WithProfiler and a fresh
// collector, and its payload is the run's profile.
func Profiles() Instrument {
	return &stored[profile.Profile, *profile.Collector]{
		kind:    "profile",
		collect: profile.NewCollector,
		option:  system.WithProfiler,
		payload: func(col *profile.Collector, point string) *profile.Profile {
			p := col.Profile()
			p.Meta.Label = point
			return p
		},
		encode: (*profile.Profile).Encode,
	}
}

// Spans is the per-transaction span tracer instrument: every
// measurement run executes with system.WithSpans and a fresh tracer
// sampling by cfg, and its payload is the run's trace dump.
func Spans(cfg txtrace.Config) Instrument {
	return &stored[txtrace.Dump, *txtrace.Tracer]{
		kind:    "spans",
		collect: func() *txtrace.Tracer { return txtrace.NewTracer(cfg) },
		option:  system.WithSpans,
		payload: func(tr *txtrace.Tracer, point string) *txtrace.Dump {
			d := tr.Dump()
			d.Meta.Label = point
			return d
		},
		encode: (*txtrace.Dump).Write,
	}
}

// QueueStats is the queueing-observatory instrument: every measurement
// run executes with system.WithQueueStats and a fresh collector, and
// its payload is the run's station report (none if the run published
// no report).
func QueueStats() Instrument {
	return &stored[qstats.Report, *qstats.Collector]{
		kind:    "qstats",
		collect: qstats.NewCollector,
		option:  system.WithQueueStats,
		payload: func(qc *qstats.Collector, point string) *qstats.Report {
			rep := qc.Report()
			if rep != nil {
				rep.Meta.Label = point
			}
			return rep
		},
		encode: (*qstats.Report).WriteJSON,
	}
}

// Timeline is the timeline instrument: every measurement run executes
// with system.WithTimeline and a fresh timeline sampling every
// intervalMS simulated milliseconds (0 means 100 ms), and its payload is
// the run's phase spans and samples. An interval WithTimeline rejects
// fails the run.
func Timeline(intervalMS float64) Instrument {
	return &stored[telemetry.TimelineDump, *telemetry.Timeline]{
		kind:    "timeline",
		collect: func() *telemetry.Timeline { return telemetry.NewTimeline(intervalMS) },
		option:  system.WithTimeline,
		payload: func(tl *telemetry.Timeline, point string) *telemetry.TimelineDump {
			d := tl.Dump()
			d.Label = point
			return d
		},
		encode: (*telemetry.TimelineDump).Write,
	}
}

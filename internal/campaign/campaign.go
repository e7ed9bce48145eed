// Package campaign schedules measurement campaigns — the warehouse ×
// processor sweeps with per-point ≥90%-utilization client tuning behind
// the paper's Table 1 and Figures 2-16 — as one context-aware run.
//
// A single bounded worker pool executes every simulator run in the
// campaign: the measurement points of all sweeps and the client tuner's
// utilization probes. Tuning for one processor configuration walks the
// warehouse axis in order, warm-starting each search at the previous
// point's tuned count and memoizing every probe, while finished points
// measure concurrently. Completed work persists to a JSON checkpoint,
// so an interrupted campaign resumes where it left off, and a pluggable
// Observer streams progress events (PointStarted, PointFinished,
// TunerProbe, CampaignDone) for progress lines and machine-readable
// logs. Instruments (the profiler, span tracer and queueing observatory)
// attach to every measurement run and checkpoint one payload each.
package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"odbscale/internal/clock"
	"odbscale/internal/system"
)

// Spec describes one campaign: the platform and measurement lengths,
// the client-tuning policy, the sweep axes, and the operational knobs
// (parallelism, checkpointing, observation).
type Spec struct {
	Machine system.MachineConfig
	Tuning  system.Tuning
	Seed    int64

	// Engine names the storage engine every run executes on (see
	// internal/engine's registry); empty means the default B-tree.
	Engine string

	WarmupTxns  int
	MeasureTxns int
	// TuneTxns is the (shorter) measurement length of tuner probes.
	TuneTxns int

	// TargetUtil is the CPU utilization the client tuner must reach
	// (the paper keeps every configuration above 90%).
	TargetUtil float64
	MinClients int
	MaxClients int

	// AutoTune enables the client tuner; otherwise HeuristicClients
	// picks each point's client count.
	AutoTune bool
	// Clients, when positive, pins every point to a fixed client count,
	// overriding both the tuner and the heuristic.
	Clients int

	// Parallelism bounds concurrent simulator runs (0 = GOMAXPROCS).
	Parallelism int

	// Warehouses and Processors are the sweep axes; every (W, P) pair is
	// one measurement point. Warehouses should ascend: the tuner's warm
	// start (see Runner.lane) only carries forward to larger counts.
	Warehouses []int
	Processors []int

	// CheckpointPath, when set, persists completed points and probes
	// after each run; "" disables checkpointing.
	CheckpointPath string
	// Resume loads CheckpointPath (if it exists) and skips every point
	// already completed, re-using recorded tuner probes. Requires a
	// CheckpointPath; a missing file starts a fresh campaign.
	Resume bool

	// Observer receives progress events; nil means none.
	Observer Observer

	// Instruments observe every measurement run (tuner probes run
	// bare): each is started before the run, attaches its system.Run
	// option, and finishes into one payload kind that persists in the
	// checkpoint and comes back from it on resume. Profiles, Spans and
	// QueueStats build the built-in ones.
	Instruments []Instrument
}

// fingerprint reduces the spec to its run-defining parameters.
func (s *Spec) fingerprint() Fingerprint {
	return Fingerprint{
		Machine:     s.Machine.Name,
		Engine:      s.Engine,
		Seed:        s.Seed,
		WarmupTxns:  s.WarmupTxns,
		MeasureTxns: s.MeasureTxns,
		TuneTxns:    s.TuneTxns,
		TargetUtil:  s.TargetUtil,
		MinClients:  s.MinClients,
		MaxClients:  s.MaxClients,
		AutoTune:    s.AutoTune,
		Clients:     s.Clients,
	}
}

func (s *Spec) validate() error {
	if len(s.Warehouses) == 0 || len(s.Processors) == 0 {
		return fmt.Errorf("campaign: empty sweep axes (W=%v, P=%v)", s.Warehouses, s.Processors)
	}
	if s.MeasureTxns < 1 {
		return fmt.Errorf("campaign: %w", system.ErrNoTxns)
	}
	if s.Clients < 0 {
		return fmt.Errorf("campaign: negative Clients %d (0 tunes or uses the heuristic, positive pins a count)", s.Clients)
	}
	if s.AutoTune {
		if s.TuneTxns < 1 {
			return fmt.Errorf("campaign: AutoTune requires positive TuneTxns")
		}
		if s.MinClients < 1 || s.MaxClients < s.MinClients {
			return fmt.Errorf("campaign: bad client range [%d, %d]", s.MinClients, s.MaxClients)
		}
	}
	// Every point's run configuration, checked before anything is written,
	// with the errors system.Run would return for it.
	for _, w := range s.Warehouses {
		for _, p := range s.Processors {
			if err := system.Validate(s.config(w, max(s.Clients, 1), p, s.MeasureTxns)); err != nil {
				return fmt.Errorf("campaign: W=%d P=%d: %w", w, p, err)
			}
		}
	}
	return nil
}

// config assembles the simulator configuration of one run.
func (s *Spec) config(w, c, p, txns int) system.Config {
	return system.Config{
		Warehouses:  w,
		Clients:     c,
		Processors:  p,
		Seed:        s.Seed,
		Engine:      s.Engine,
		Machine:     s.Machine,
		Tuning:      s.Tuning,
		Coherent:    true,
		WarmupTxns:  s.WarmupTxns,
		MeasureTxns: txns,
	}
}

// pointName renders the canonical name of a measurement point run with
// c clients ("W=10,C=8,P=1"), which labels its instrument payloads.
func pointName(w, c, p int) string { return fmt.Sprintf("W=%d,C=%d,P=%d", w, c, p) }

// PointKey addresses one (warehouses, processors) measurement point.
type PointKey struct {
	W, P int
}

// Result holds a completed campaign.
type Result struct {
	Warehouses []int
	Processors []int
	Points     map[PointKey]system.Metrics
	Summary    Summary

	// points is the runner's checkpoint store: each point as its
	// checkpoint persists it, for fresh and resumed points alike.
	points map[PointKey]CheckpointPoint
}

// Metrics returns one point's measurement.
func (r *Result) Metrics(w, p int) (system.Metrics, bool) {
	m, ok := r.Points[PointKey{W: w, P: p}]
	return m, ok
}

// Point returns one point as its checkpoint holds it: its client count,
// metrics and instrument payloads by kind (Flight), which the kind's
// Instrument.Write turns into the kind's file.
func (r *Result) Point(w, p int) (CheckpointPoint, bool) {
	pt, ok := r.points[PointKey{W: w, P: p}]
	return pt, ok
}

// Series returns the metrics of one processor configuration in
// warehouse-axis order.
func (r *Result) Series(p int) []system.Metrics {
	out := make([]system.Metrics, 0, len(r.Warehouses))
	for _, w := range r.Warehouses {
		if m, ok := r.Points[PointKey{W: w, P: p}]; ok {
			out = append(out, m)
		}
	}
	return out
}

// RunFunc is the simulator entry point a Runner drives. att holds the
// run's instrument handles; tuner probes pass none.
type RunFunc func(ctx context.Context, cfg system.Config, att []Attached) (system.Metrics, error)

// DefaultRun is the RunFunc a Runner uses unless given another: it calls
// system.Run with each handle's option. A RunFunc that interposes on
// runs can hand it more handles.
func DefaultRun(ctx context.Context, cfg system.Config, att []Attached) (system.Metrics, error) {
	opts := make([]system.Option, len(att))
	for i, a := range att {
		opts[i] = a.Option()
	}
	return system.Run(ctx, cfg, opts...)
}

// Runner executes campaigns. The zero value with a Spec is ready to
// use; RunFunc may be overridden to interpose on simulator runs (tests,
// caching layers).
type Runner struct {
	Spec    Spec
	RunFunc RunFunc // nil means DefaultRun

	// Clock supplies the wall time behind the Elapsed fields of
	// progress events; nil means the real clock. Simulated results
	// never depend on it — the determinism lint rule keeps time.Now
	// out of this package, so observability timing must flow through
	// this injectable funnel.
	Clock clock.Clock
}

// clock resolves the runner's wall-clock source.
func (r *Runner) clock() clock.Clock {
	if r.Clock != nil {
		return r.Clock
	}
	return clock.Wall()
}

// Run executes the campaign described by spec. It is shorthand for
// (&Runner{Spec: spec}).Run(ctx).
func Run(ctx context.Context, spec Spec) (*Result, error) {
	return (&Runner{Spec: spec}).Run(ctx)
}

// pool bounds concurrent simulator runs.
type pool struct {
	sem chan struct{}
}

func newPool(parallelism int) *pool {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &pool{sem: make(chan struct{}, parallelism)}
}

// do executes fn inside the pool, honouring ctx while waiting for a
// slot and during the run itself.
func (pl *pool) do(ctx context.Context, fn func(context.Context) (system.Metrics, error)) (system.Metrics, error) {
	select {
	case pl.sem <- struct{}{}:
		defer func() { <-pl.sem }()
	case <-ctx.Done():
		return system.Metrics{}, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return system.Metrics{}, err
	}
	return fn(ctx)
}

// run executes one configuration inside the pool.
func (pl *pool) run(ctx context.Context, fn RunFunc, cfg system.Config, att []Attached) (system.Metrics, error) {
	return pl.do(ctx, func(ctx context.Context) (system.Metrics, error) { return fn(ctx, cfg, att) })
}

// emitter serializes observer delivery and keeps the summary counters.
type emitter struct {
	mu  sync.Mutex
	obs Observer
	sum Summary
}

func (e *emitter) pointStarted(p Point) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.obs.PointStarted(p)
}

func (e *emitter) pointFinished(p PointResult) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sum.Points++
	if p.Resumed {
		e.sum.PointsResumed++
	} else {
		e.sum.Runs++
	}
	e.obs.PointFinished(p)
}

func (e *emitter) tunerProbe(p Probe) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sum.Probes++
	if p.Cached {
		e.sum.ProbesCached++
	} else {
		e.sum.Runs++
	}
	e.obs.TunerProbe(p)
}

func (e *emitter) done(elapsed time.Duration, err error) Summary {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sum.Elapsed = elapsed
	e.sum.Err = err
	e.obs.CampaignDone(e.sum)
	return e.sum
}

// Run executes the campaign: every processor configuration tunes its
// warehouse points in axis order (probes flowing through the shared
// pool), and each point's measurement run is scheduled on the pool as
// soon as its client count is known. The first failure — including a
// context cancellation — stops scheduling, cancels in-flight waits, and
// is returned after in-flight runs drain; completed work remains in the
// checkpoint, so a rerun with Resume picks up from there.
func (r *Runner) Run(ctx context.Context) (*Result, error) {
	spec := &r.Spec
	if err := spec.validate(); err != nil {
		return nil, err
	}
	runFn := r.RunFunc
	if runFn == nil {
		runFn = DefaultRun
	}
	obs := spec.Observer
	if obs == nil {
		obs = noop{}
	}
	ck, err := newCKStore(spec)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	clk := r.clock()
	started := clk.Now()
	if spec.CheckpointPath != "" {
		if err := r.writeManifest(clk, started, "campaign started"); err != nil {
			return nil, fmt.Errorf("campaign: writing manifest: %w", err)
		}
	}
	em := &emitter{obs: obs}
	pl := newPool(spec.Parallelism)
	res := &Result{
		Warehouses: append([]int(nil), spec.Warehouses...),
		Processors: append([]int(nil), spec.Processors...),
		Points:     make(map[PointKey]system.Metrics),
	}

	var (
		failMu   sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		failMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		failMu.Unlock()
	}
	var resMu sync.Mutex
	record := func(k PointKey, m system.Metrics) {
		resMu.Lock()
		res.Points[k] = m
		resMu.Unlock()
	}

	var wg sync.WaitGroup
	for _, p := range spec.Processors {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r.lane(ctx, p, pl, ck, em, runFn, &wg, fail, record)
		}(p)
	}
	wg.Wait()

	sum := em.done(clk.Since(started), firstErr)
	if spec.CheckpointPath != "" {
		notes := fmt.Sprintf("points=%d (resumed %d) runs=%d probes=%d (cached %d) failed=%v",
			sum.Points, sum.PointsResumed, sum.Runs, sum.Probes, sum.ProbesCached, sum.Err != nil)
		if err := r.writeManifest(clk, started, notes); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("campaign: writing manifest: %w", err)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	res.Summary = sum
	res.points = ck.points // every lane has finished writing it
	return res, nil
}

// lane walks one processor configuration along the warehouse axis:
// resume or tune each point sequentially (so warm starts and probe
// memoization see the previous point), then hand the measurement run to
// the pool and move on while it simulates.
//
// The warm start floors each point's tuner search at the tuned count of
// the preceding smaller-warehouse point on the lane: the paper's Table 1
// trend (tuned clients never shrink as warehouses grow) made
// algorithmic. A plateau point then costs two confirming probes instead
// of a full exponential climb from MinClients. A lane's first point, and
// any point after a larger warehouse count, climbs from MinClients.
func (r *Runner) lane(ctx context.Context, p int, pl *pool, ck *ckStore, em *emitter,
	runFn RunFunc, wg *sync.WaitGroup, fail func(error), record func(PointKey, system.Metrics)) {
	spec := &r.Spec
	clk := r.clock()
	prevW, floor := -1, spec.MinClients
	for _, w := range spec.Warehouses {
		if ctx.Err() != nil {
			fail(ctx.Err())
			return
		}
		key := PointKey{W: w, P: p}
		if pt, ok := ck.point(key); ok {
			// A payload of a configured kind must decode; kinds no
			// instrument claims are carried along unread.
			for _, in := range spec.Instruments {
				raw, ok := pt.Flight[in.Kind()]
				if !ok {
					continue
				}
				if err := in.Write(io.Discard, raw); err != nil {
					fail(fmt.Errorf("campaign: restoring W=%d P=%d: %w", w, p, err))
					return
				}
			}
			em.pointFinished(PointResult{
				Point:   Point{Warehouses: w, Processors: p, Clients: pt.C},
				Metrics: pt.Metrics,
				Resumed: true,
			})
			record(key, pt.Metrics)
			if w >= prevW && pt.C > floor {
				floor = pt.C
			}
			prevW = w
			continue
		}

		c := spec.Clients
		if c <= 0 {
			if spec.AutoTune {
				start := spec.MinClients
				if w >= prevW {
					start = floor
				}
				tuned, err := r.tunePoint(ctx, pl, ck, em, runFn, w, p, start)
				if err != nil {
					fail(fmt.Errorf("campaign: tuning W=%d P=%d: %w", w, p, err))
					return
				}
				c = tuned
				if w >= prevW && c > floor {
					floor = c
				}
			} else {
				c = system.HeuristicClients(w, p)
			}
		}
		prevW = w

		wg.Add(1)
		go func(w, p, c int) {
			defer wg.Done()
			point := Point{Warehouses: w, Processors: p, Clients: c}
			em.pointStarted(point)
			t0 := clk.Now()
			name := pointName(w, c, p)
			att := make([]Attached, len(spec.Instruments))
			for i, in := range spec.Instruments {
				att[i] = in.Start(name)
			}
			m, err := pl.run(ctx, runFn, spec.config(w, c, p, spec.MeasureTxns), att)
			// Persist the point's observability payload alongside its
			// metrics so a resumed campaign hands it out rather than
			// losing it.
			ok := err == nil
			payload := make(map[string]json.RawMessage, len(att))
			for i, a := range att {
				raw, ferr := a.Finish(ok)
				if raw != nil {
					payload[spec.Instruments[i].Kind()] = raw
				}
				if err == nil {
					err = ferr
				}
			}
			elapsed := clk.Since(t0)
			if err != nil {
				em.pointFinished(PointResult{Point: point, Elapsed: elapsed, Err: err})
				fail(fmt.Errorf("campaign: W=%d P=%d: %w", w, p, err))
				return
			}
			em.pointFinished(PointResult{Point: point, Metrics: m, Elapsed: elapsed})
			record(PointKey{W: w, P: p}, m)
			if err := ck.addPoint(CheckpointPoint{W: w, P: p, C: c, Metrics: m, Flight: payload}); err != nil {
				fail(fmt.Errorf("campaign: checkpointing W=%d P=%d: %w", w, p, err))
			}
		}(w, p, c)
	}
}

// tunePoint finds the point's client count with the memoized,
// warm-started tuner search; every probe that is not already in the
// memo runs through the shared pool.
func (r *Runner) tunePoint(ctx context.Context, pl *pool, ck *ckStore, em *emitter,
	runFn RunFunc, w, p, start int) (int, error) {
	spec := &r.Spec
	clk := r.clock()
	probe := func(c int) (float64, error) {
		if u, ok := ck.probe(w, p, c); ok {
			em.tunerProbe(Probe{Warehouses: w, Processors: p, Clients: c, Util: u, Cached: true})
			return u, nil
		}
		t0 := clk.Now()
		m, err := pl.run(ctx, runFn, spec.config(w, c, p, spec.TuneTxns), nil)
		if err != nil {
			return 0, err
		}
		u := m.CPUUtil
		em.tunerProbe(Probe{Warehouses: w, Processors: p, Clients: c, Util: u, Elapsed: clk.Since(t0)})
		if err := ck.addProbe(w, p, c, u); err != nil {
			return 0, err
		}
		return u, nil
	}
	return Tune(probe, Bounds{
		Min:    spec.MinClients,
		Max:    spec.MaxClients,
		Start:  start,
		Target: spec.TargetUtil,
	})
}

package system

import (
	"context"
	"io"

	"odbscale/internal/cache"
	"odbscale/internal/perfmon"
	"odbscale/internal/profile"
	"odbscale/internal/qstats"
	"odbscale/internal/telemetry"
	"odbscale/internal/trace"
	"odbscale/internal/txtrace"
)

// Option attaches an optional observer to a Run. Observers are strictly
// that: none of them draws randomness or schedules simulation events, so
// metrics are bit-identical with any combination of options attached.
type Option func(*runOpts)

type runOpts struct {
	trace      io.Writer
	traceCount *uint64
	rec        *telemetry.Recorder
	emon       *perfmon.Config
	emonOut    *[]perfmon.Result
	prof       *profile.Collector
	spans      *txtrace.Tracer
	qs         *qstats.Collector
}

// WithTrace captures every simulated memory reference of the measurement
// period to w in the trace format (see package trace and cmd/odbtrace).
// If count is non-nil it receives the number of records written. A nil w
// is ignored.
func WithTrace(w io.Writer, count *uint64) Option {
	return func(o *runOpts) {
		o.trace = w
		o.traceCount = count
	}
}

// WithRecorder feeds the flight recorder: per-transaction latency spans,
// phase marks at the warm-up reset and at run end, and timeline samples
// every recorder interval of simulated time. A nil recorder is ignored.
func WithRecorder(rec *telemetry.Recorder) Option {
	return func(o *runOpts) { o.rec = rec }
}

// WithEMON samples the machine's performance counters with the paper's
// EMON schedule (grouped events, round-robin windows, repeated rotations)
// during the measurement period; the run continues until both the
// transaction target and the sampling schedule complete. If results is
// non-nil it receives one rate observation per event, with the sampling
// spread — including the noise the paper reports for rare events.
func WithEMON(cfg perfmon.Config, results *[]perfmon.Result) Option {
	return func(o *runOpts) {
		o.emon = &cfg
		o.emonOut = results
	}
}

// WithProfiler feeds the cycle-attribution profiler: every measured
// chunk's cycles and microarchitectural events are apportioned over
// (transaction type, engine phase, mode) frames as the pricing path
// retires them. A nil collector is ignored.
func WithProfiler(prof *profile.Collector) Option {
	return func(o *runOpts) { o.prof = prof }
}

// WithSpans feeds the per-transaction span tracer: each measured
// transaction's lifecycle is built as a tree of simulated-time spans
// (run-queue wait, per-phase CPU, lock wait per class, I/O, busy wait)
// and a deterministic sample — head sampling by commit counter plus the
// K slowest per type — is retained for reports and export. A nil tracer
// is ignored.
func WithSpans(tr *txtrace.Tracer) Option {
	return func(o *runOpts) { o.spans = tr }
}

// WithQueueStats feeds the queueing observatory: every shared service
// center (CPU run queues, bus, disk and log arrays, lock manager,
// buffer busy waits, engine writer throttles) accumulates arrivals,
// completions, busy and waiting time into the collector's stations, a
// derived report is published at every flight-recorder tick, and the
// final report — utilization, throughput, service/wait times, queue
// lengths, operational-law residuals, bottleneck ranking — is published
// when the run completes. Strictly observational: no randomness, no
// scheduled events, bit-identical metrics. A nil collector is ignored.
func WithQueueStats(c *qstats.Collector) Option {
	return func(o *runOpts) { o.qs = c }
}

// Run executes one configuration and returns its metrics. It is the
// single entry point for all simulations: options attach the trace
// capture, flight recorder, EMON sampler, cycle profiler, span tracer
// and queueing collector.
//
// When ctx is cancelled mid-simulation the drive loop stops and the
// context's error is returned instead of metrics. A nil ctx is treated
// as context.Background().
func Run(ctx context.Context, cfg Config, opts ...Option) (Metrics, error) {
	var o runOpts
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	if err := validate(cfg); err != nil {
		return Metrics{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Machine construction and prefill are expensive at large warehouse
	// counts; a context that is already dead skips them entirely.
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}

	var tw *trace.Writer
	if o.trace != nil {
		var err error
		tw, err = trace.NewWriter(o.trace)
		if err != nil {
			return Metrics{}, err
		}
	}
	if o.rec != nil {
		o.rec.SetTarget(uint64(cfg.MeasureTxns))
	}
	if o.prof != nil {
		o.prof.SetMeta(profile.Meta{
			Warehouses: cfg.Warehouses,
			Clients:    cfg.Clients,
			Processors: cfg.Processors,
			Seed:       cfg.Seed,
			Scale:      cfg.Tuning.Scale,
			FreqHz:     cfg.Machine.FreqHz,
			OtherCPI:   cfg.Tuning.OtherCPI,
			Stall:      cfg.Machine.Stall,
		})
	}

	if o.spans != nil {
		o.spans.SetMeta(txtrace.Meta{
			Warehouses: cfg.Warehouses,
			Clients:    cfg.Clients,
			Processors: cfg.Processors,
			Seed:       cfg.Seed,
			FreqHz:     cfg.Machine.FreqHz,
		})
	}

	m := build(cfg)
	m.rec = o.rec
	m.prof = o.prof
	m.spans = o.spans
	if o.qs != nil {
		m.qs = o.qs
		m.sched.SetStation(o.qs.Station(qstats.CPU))
		m.fsb.SetStation(o.qs.Station(qstats.Bus))
		m.disks.SetStations(o.qs.Station(qstats.Disk), o.qs.Station(qstats.Log))
		m.qsLock = o.qs.Station(qstats.LockMgr)
		m.qsBusy = o.qs.Station(qstats.BufferPool)
		m.qsEngine = o.qs.Station(qstats.Engine)
		o.qs.SetServers(qstats.CPU, cfg.Processors*m.smt)
		o.qs.SetServers(qstats.Bus, 1)
		o.qs.SetServers(qstats.Disk, m.disks.DataDisks())
		o.qs.SetServers(qstats.Log, cfg.Machine.Disks.LogDisks)
	}

	// Observer hooks arm at the warm-up reset so they see exactly the
	// measurement period. Multiple observers chain on the same hook.
	var tapErr error
	if tw != nil {
		m.onReset = chainHook(m.onReset, func() {
			m.synth.SetTap(func(cpu int, addr cache.Addr, kind cache.Kind) {
				if tapErr == nil {
					tapErr = tw.Write(trace.Record{CPU: uint8(cpu), Kind: kind, Addr: uint64(addr)})
				}
			})
		})
	}
	var sampler *perfmon.Sampler
	if o.emon != nil {
		emonCfg := *o.emon
		m.onReset = chainHook(m.onReset, func() {
			sampler = perfmon.NewSampler(m.eng, emonCfg, m.counterSource())
			sampler.Start(nil)
		})
		m.extraDone = func() bool { return sampler != nil && sampler.Done() }
	}

	m.prefill()
	m.start()
	if o.rec != nil {
		m.startFlight()
	}
	if err := m.drive(ctx); err != nil {
		return Metrics{}, err
	}
	if tapErr != nil {
		return Metrics{}, tapErr
	}
	if tw != nil {
		if err := tw.Flush(); err != nil {
			return Metrics{}, err
		}
		if o.traceCount != nil {
			*o.traceCount = tw.Count()
		}
	}
	if o.rec != nil {
		o.rec.MarkPhase(telemetry.PhaseDone, float64(m.eng.Now())/cfg.Machine.FreqHz)
	}
	met := m.metrics()
	if o.qs != nil {
		o.qs.Publish(m.qsReport())
	}
	if o.prof != nil {
		o.prof.SetIdle(m.sched.IdleCyclesAt(m.eng.Now()))
		o.prof.Finalize(met.ElapsedSeconds, met.Txns)
	}
	if o.emonOut != nil && sampler != nil {
		results := make([]perfmon.Result, 0, len(perfmon.Events()))
		for _, e := range perfmon.Events() {
			results = append(results, sampler.Result(e))
		}
		*o.emonOut = results
	}
	return met, nil
}

// chainHook composes measurement-start hooks in registration order.
func chainHook(prev, next func()) func() {
	if prev == nil {
		return next
	}
	return func() {
		prev()
		next()
	}
}

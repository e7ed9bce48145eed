package system

import (
	"context"
	"fmt"
	"io"

	"odbscale/internal/cache"
	"odbscale/internal/perfmon"
	"odbscale/internal/profile"
	"odbscale/internal/qstats"
	"odbscale/internal/telemetry"
	"odbscale/internal/trace"
	"odbscale/internal/txtrace"
)

// Option attaches an optional observer to a Run. It is applied to the
// built machine before prefill, in argument order: it sets the
// machine's concrete hot-path field and registers its own
// measurement-start and run-end hooks. WithTrace, WithTimeline,
// WithProfiler, WithSpans and WithQueueStats only read simulated state:
// none draws randomness, and the timeline's sample ticks are the only
// events any of them schedules. Metrics are bit-identical with any
// combination of these five attached, in any order. WithEMON is the
// exception: its sampler schedules events and the run continues until
// its schedule completes, so it can measure more than MeasureTxns.
type Option func(*machine) error

// WithTrace captures every simulated memory reference of the measurement
// period to w in the trace format (see package trace and odbreport replay).
// If count is non-nil it receives the number of records written. A nil w
// is ignored.
func WithTrace(w io.Writer, count *uint64) Option {
	return func(m *machine) error {
		if w == nil {
			return nil
		}
		tw, err := trace.NewWriter(w)
		if err != nil {
			return err
		}
		var tapErr error
		m.atReset = append(m.atReset, func() {
			m.synth.SetTap(func(cpu int, addr cache.Addr, kind cache.Kind) {
				if tapErr == nil {
					tapErr = tw.Write(trace.Record{CPU: uint8(cpu), Kind: kind, Addr: uint64(addr)})
				}
			})
		})
		m.atEnd = append(m.atEnd, func(Metrics) error {
			if tapErr != nil {
				return tapErr
			}
			if err := tw.Flush(); err != nil {
				return err
			}
			if count != nil {
				*count = tw.Count()
			}
			return nil
		})
		return nil
	}
}

// WithTimeline feeds the run's timeline: the warm-up and measure phase
// spans, closed at the warm-up reset and at run end, and one sample
// every timeline interval of simulated time. An interval that is not
// finite or lies outside [1 ms, 3.6·10^6 ms] fails the run with
// ErrBadConfig before prefill: below a millisecond the sampler's ticks
// outnumber the workload's events (at one tick per cycle a default run
// never finishes), a simulated hour is already far past the run cap,
// and a non-finite interval has no cycle count. A nil timeline is
// ignored.
func WithTimeline(tl *telemetry.Timeline) Option {
	return func(m *machine) error {
		if tl == nil {
			return nil
		}
		if ms := tl.Interval(); !(ms >= 1 && ms <= 3.6e6) {
			return fmt.Errorf("system: %w: timeline interval %v ms outside [1, 3.6e6]", ErrBadConfig, ms)
		}
		m.tl = tl
		freq := m.cfg.Machine.FreqHz
		m.atReset = append(m.atReset, func() {
			tl.EndPhase(float64(m.resetAt)/freq, m.totalTxns)
		})
		m.atEnd = append(m.atEnd, func(Metrics) error {
			tl.EndPhase(float64(m.eng.Now())/freq, m.totalTxns)
			return nil
		})
		return nil
	}
}

// WithEMON samples the machine's performance counters with the paper's
// EMON schedule (grouped events, round-robin windows, repeated rotations)
// during the measurement period; the run continues until both the
// transaction target and the sampling schedule complete. If results is
// non-nil it receives one rate observation per event, with the sampling
// spread — including the noise the paper reports for rare events.
func WithEMON(cfg perfmon.Config, results *[]perfmon.Result) Option {
	return func(m *machine) error {
		var sampler *perfmon.Sampler
		m.atReset = append(m.atReset, func() {
			sampler = perfmon.NewSampler(m.eng, cfg, m.counterSource())
			sampler.Start(nil)
		})
		m.extraDone = func() bool { return sampler != nil && sampler.Done() }
		m.atEnd = append(m.atEnd, func(Metrics) error {
			if results == nil || sampler == nil {
				return nil
			}
			out := make([]perfmon.Result, 0, len(perfmon.Events()))
			for _, e := range perfmon.Events() {
				out = append(out, sampler.Result(e))
			}
			*results = out
			return nil
		})
		return nil
	}
}

// WithProfiler feeds the cycle-attribution profiler: every measured
// chunk's cycles and microarchitectural events are apportioned over
// (transaction type, engine phase, mode) frames as the pricing path
// retires them. A nil collector is ignored.
func WithProfiler(prof *profile.Collector) Option {
	return func(m *machine) error {
		if prof == nil {
			return nil
		}
		m.prof = prof
		prof.SetMeta(profile.Meta{
			Warehouses: m.cfg.Warehouses,
			Clients:    m.cfg.Clients,
			Processors: m.cfg.Processors,
			Seed:       m.cfg.Seed,
			Scale:      m.cfg.Tuning.Scale,
			FreqHz:     m.cfg.Machine.FreqHz,
			OtherCPI:   m.cfg.Tuning.OtherCPI,
			Stall:      m.cfg.Machine.Stall,
		})
		m.atEnd = append(m.atEnd, func(met Metrics) error {
			prof.SetIdle(m.sched.IdleCyclesAt(m.eng.Now()))
			prof.Finalize(met.ElapsedSeconds, met.Txns)
			return nil
		})
		return nil
	}
}

// WithSpans feeds the per-transaction span tracer: each measured
// transaction's lifecycle is built as a tree of simulated-time spans
// (run-queue wait, per-phase CPU, lock wait per class, I/O, busy wait)
// and a deterministic sample — head sampling by commit counter plus the
// K slowest per type — is retained for reports and export. A nil tracer
// is ignored.
func WithSpans(tr *txtrace.Tracer) Option {
	return func(m *machine) error {
		if tr == nil {
			return nil
		}
		m.spans = tr
		tr.SetMeta(txtrace.Meta{
			Warehouses: m.cfg.Warehouses,
			Clients:    m.cfg.Clients,
			Processors: m.cfg.Processors,
			Seed:       m.cfg.Seed,
			FreqHz:     m.cfg.Machine.FreqHz,
		})
		return nil
	}
}

// WithQueueStats feeds the queueing observatory: every shared service
// center (CPU run queues, bus, disk and log arrays, lock manager,
// buffer busy waits, engine writer throttles) accumulates arrivals,
// completions, busy and waiting time into the collector's stations, and
// the report — utilization, throughput, service/wait times, queue
// lengths, operational-law residuals, bottleneck ranking — is built and
// published once, when the run completes. A nil collector is ignored.
func WithQueueStats(c *qstats.Collector) Option {
	return func(m *machine) error {
		if c == nil {
			return nil
		}
		m.qs = c
		m.sched.SetStation(c.Station(qstats.CPU))
		m.fsb.SetStation(c.Station(qstats.Bus))
		m.disks.SetStations(c.Station(qstats.Disk), c.Station(qstats.Log))
		m.qsLock = c.Station(qstats.LockMgr)
		m.qsBusy = c.Station(qstats.BufferPool)
		m.qsEngine = c.Station(qstats.Engine)
		c.SetServers(qstats.CPU, m.cfg.Processors)
		c.SetServers(qstats.Bus, 1)
		c.SetServers(qstats.Disk, m.disks.DataDisks())
		c.SetServers(qstats.Log, m.cfg.Machine.Disks.LogDisks)
		m.atReset = append(m.atReset, func() {
			c.ResetStations()
			// Clear in-flight block marks so no completion lands in the
			// measurement window without its arrival.
			for _, sp := range m.procs {
				sp.qsSt = nil
			}
		})
		m.atEnd = append(m.atEnd, func(Metrics) error {
			c.Publish(m.qsReport())
			return nil
		})
		return nil
	}
}

// Run executes one configuration and returns its metrics. It is the
// single entry point for all simulations: options attach the trace
// capture, timeline, EMON sampler, cycle profiler, span tracer and
// queueing collector.
//
// When ctx is cancelled mid-simulation the drive loop stops and the
// context's error is returned instead of metrics. A nil ctx is treated
// as context.Background().
func Run(ctx context.Context, cfg Config, opts ...Option) (Metrics, error) {
	if err := Validate(cfg); err != nil {
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

	m := build(cfg)
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(m); err != nil {
			return Metrics{}, err
		}
	}
	if err := m.prefill(ctx); err != nil {
		return Metrics{}, err
	}
	m.start()
	if err := m.drive(ctx); err != nil {
		return Metrics{}, err
	}
	met := m.metrics()
	for _, end := range m.atEnd {
		if err := end(met); err != nil {
			return Metrics{}, err
		}
	}
	return met, nil
}

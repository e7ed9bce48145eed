// Package odbscale reproduces "Scaling and Characterizing Database
// Workloads: Bridging the Gap between Research and Practice" (MICRO 2003)
// as a simulation study: a TPC-C-like OLTP engine (ODB) over a buffer
// cache, disk array, OS scheduler, multi-level cache hierarchy with MESI
// coherence and a shared front-side bus, together with the paper's
// analytical contributions — the iron law of database performance and
// the piecewise-linear pivot-point scaling model.
//
// The package is a facade: it re-exports the stable surface of the
// internal packages so downstream users need a single import.
//
// Quick start:
//
//	cfg := odbscale.DefaultConfig(100, 32, 4) // warehouses, clients, CPUs
//	m, err := odbscale.Run(cfg)
//	// m.TPS, m.IPX, m.CPI, m.MPI, m.Breakdown, ...
//
// Campaigns — warehouse × processor sweeps with ≥90%-utilization client
// tuning — run through a context-aware scheduler with checkpoint/resume
// and progress observation:
//
//	spec := odbscale.DefaultCampaignSpec(odbscale.StandardWarehouses, []int{1, 2, 4})
//	spec.CheckpointPath = "campaign.json" // interrupted campaigns resume
//	spec.Resume = true
//	spec.Observer = odbscale.NewCampaignProgress(os.Stderr, len(spec.Warehouses)*len(spec.Processors))
//	res, err := odbscale.RunCampaign(ctx, spec)
//	char, err := odbscale.CharacterizeCampaign(res, 4) // pivot points, extrapolation
//
// A CampaignSpec is the one way to describe a sweep and RunCampaign the
// one way to run it; the result feeds the characterization directly.
package odbscale

import (
	"context"
	"io"

	"odbscale/internal/campaign"
	"odbscale/internal/core"
	"odbscale/internal/experiment"
	"odbscale/internal/odb"
	"odbscale/internal/perfmon"
	"odbscale/internal/profile"
	"odbscale/internal/qstats"
	"odbscale/internal/stats"
	"odbscale/internal/system"
	"odbscale/internal/telemetry"
	"odbscale/internal/txtrace"
	"odbscale/internal/xrand"
)

// Configuration and measurement of a single OLTP setup.
type (
	// Config describes one simulated configuration: workload size
	// (warehouses, clients), system size (processors), platform and
	// tuning constants.
	Config = system.Config
	// MachineConfig is the hardware platform description.
	MachineConfig = system.MachineConfig
	// Tuning holds the software-model calibration constants.
	Tuning = system.Tuning
	// Metrics is everything one run measures: throughput, IPX, CPI, MPI
	// (with user/OS splits), disk and bus behaviour, context switches.
	Metrics = system.Metrics
)

// Option attaches an optional observer (trace capture, flight recorder,
// EMON sampler, cycle profiler, span tracer, queueing observatory) to a
// Run. Metrics are bit-identical with any combination of WithTrace,
// WithRecorder, WithProfiler, WithSpans and WithQueueStats attached;
// WithEMON extends the run until its sampling schedule completes.
type Option = system.Option

// Run executes one configuration through warm-up and measurement. It is
// the single run entry point: cancellation of ctx stops the simulation's
// drive loop and returns the context's error (nil ctx means Background),
// and options attach observers:
//
//	m, err := odbscale.Run(ctx, cfg, odbscale.WithRecorder(rec))
func Run(ctx context.Context, cfg Config, opts ...Option) (Metrics, error) {
	return system.Run(ctx, cfg, opts...)
}

// WithTrace captures every measured memory reference to w in the trace
// format; a non-nil count receives the record total.
func WithTrace(w io.Writer, count *uint64) Option { return system.WithTrace(w, count) }

// WithRecorder feeds the flight recorder during the run.
func WithRecorder(rec *Recorder) Option { return system.WithRecorder(rec) }

// WithEMON samples the performance counters with the EMON schedule; a
// non-nil results receives the per-event observations.
func WithEMON(cfg EMONConfig, results *[]EMONResult) Option {
	return system.WithEMON(cfg, results)
}

// WithProfiler feeds the cycle-attribution profiler during the run.
func WithProfiler(prof *ProfileCollector) Option { return system.WithProfiler(prof) }

// WithSpans feeds the per-transaction span tracer during the run: a
// deterministic sample of transactions (head sampling plus the K
// slowest per type) is retained as span trees whose wait-state
// decomposition sums exactly to each transaction's measured latency.
func WithSpans(tr *SpanTracer) Option { return system.WithSpans(tr) }

// WithQueueStats feeds the queueing observatory during the run: each
// service station (CPUs, bus, data disks, log, lock manager, buffer
// pool, engine) is accounted as a service center, and the run's
// station report carries the operational-law audit and the wait-demand
// bottleneck ranking.
func WithQueueStats(col *QueueStatsCollector) Option { return system.WithQueueStats(col) }

// Run observers.
type (
	// Recorder is the flight recorder: latency histograms, timeline
	// samples and phase marks collected during a run.
	Recorder = telemetry.Recorder
	// RecorderConfig parameterizes the flight recorder.
	RecorderConfig = telemetry.Config
	// ProfileCollector accumulates the cycle-attribution profile of a
	// run.
	ProfileCollector = profile.Collector
	// Profile is a finalized cycle-attribution profile.
	Profile = profile.Profile
	// SpanTracer retains sampled per-transaction span trees during a
	// run.
	SpanTracer = txtrace.Tracer
	// SpanConfig parameterizes span sampling (head rate, head capacity,
	// tail reservoir size).
	SpanConfig = txtrace.Config
	// SpanDump is a tracer's serializable snapshot: run identity,
	// per-type wait-state aggregates, and the retained traces.
	SpanDump = txtrace.Dump
	// QueueStatsCollector accumulates per-station service-center
	// metrics during a run.
	QueueStatsCollector = qstats.Collector
)

// NewRecorder builds a flight recorder for WithRecorder.
func NewRecorder(cfg RecorderConfig) *Recorder { return telemetry.NewRecorder(cfg) }

// NewProfileCollector builds a collector for WithProfiler; read the
// profile with its Profile method after the run.
func NewProfileCollector() *ProfileCollector { return profile.NewCollector() }

// NewSpanTracer builds a span tracer for WithSpans; snapshot the
// retained traces with its Dump method after the run.
func NewSpanTracer(cfg SpanConfig) *SpanTracer { return txtrace.NewTracer(cfg) }

// NewQueueStatsCollector builds a collector for WithQueueStats; read
// the station report with its Report method after the run.
func NewQueueStatsCollector() *QueueStatsCollector { return qstats.NewCollector() }

// Sentinel configuration errors, matched with errors.Is.
var (
	// ErrBadConfig reports a configuration Run cannot execute: a
	// non-positive warehouse, client or processor count, or a degenerate
	// machine or tuning field, named by its path.
	ErrBadConfig = system.ErrBadConfig
	// ErrNoTxns reports a configuration without a positive MeasureTxns.
	ErrNoTxns = system.ErrNoTxns
)

// DefaultConfig returns a ready-to-run configuration of the paper's Xeon
// platform with the given warehouses, clients and processors.
func DefaultConfig(warehouses, clients, processors int) Config {
	return system.DefaultConfig(warehouses, clients, processors)
}

// XeonQuad returns the paper's experimental platform: 4-way 1.6 GHz Xeon
// MP, 1 MB L3 per processor, shared FSB, 26 disks, 2.8 GB buffer cache.
func XeonQuad() MachineConfig { return system.XeonQuad() }

// Itanium2Quad returns the Section 6.3 validation platform: 3 MB L3,
// ~1.5x bus bandwidth, more disks and memory.
func Itanium2Quad() MachineConfig { return system.Itanium2Quad() }

// DefaultTuning returns the calibrated model constants.
func DefaultTuning() Tuning { return system.DefaultTuning() }

// HeuristicClients estimates a client count for ≥90% utilization without
// running the tuner.
func HeuristicClients(warehouses, processors int) int {
	return system.HeuristicClients(warehouses, processors)
}

// The paper's analytical contribution.
type (
	// IronLaw is the iron law of database performance:
	// TPS = util × P × F / (IPX × CPI).
	IronLaw = core.IronLaw
	// Characterization bundles the two-region CPI(W) and MPI(W) fits and
	// their pivot points for one processor configuration.
	Characterization = core.Characterization
	// ScalingFit is one metric's two-region fit.
	ScalingFit = core.ScalingFit
)

// Characterize fits the two-region scaling model to CPI(W) and MPI(W)
// series (sorted by warehouses).
func Characterize(processors int, cpi, mpi Series) (Characterization, error) {
	return core.Characterize(processors, cpi, mpi)
}

// Speedup returns the throughput ratio of two iron-law operating points.
func Speedup(after, before IronLaw) float64 { return core.Speedup(after, before) }

// The campaign runner: context-aware scheduling of every run in a
// campaign (measurement points and tuner probes) on one bounded pool,
// with probe memoization, checkpoint/resume and progress events.
type (
	// CampaignSpec describes one campaign: axes, tuning policy,
	// parallelism, checkpointing and observation.
	CampaignSpec = campaign.Spec
	// CampaignResult holds a completed campaign's per-point metrics.
	CampaignResult = campaign.Result
	// CampaignObserver receives PointStarted / PointFinished /
	// TunerProbe / CampaignDone events.
	CampaignObserver = campaign.Observer
	// CampaignPoint identifies one measurement configuration.
	CampaignPoint = campaign.Point
	// CampaignPointResult carries a finished point's metrics and timing.
	CampaignPointResult = campaign.PointResult
	// CampaignProbe is one client-tuner utilization measurement.
	CampaignProbe = campaign.Probe
	// CampaignSummary closes a campaign with its run accounting.
	CampaignSummary = campaign.Summary
	// CampaignCheckpoint is the serialized resumable campaign state.
	CampaignCheckpoint = campaign.Checkpoint
)

// RunCampaign executes a campaign specification: every measurement
// point and tuner probe is scheduled on one bounded worker pool,
// completed work persists to spec.CheckpointPath (when set), and
// cancellation of ctx stops the campaign with the checkpoint intact.
func RunCampaign(ctx context.Context, spec CampaignSpec) (*CampaignResult, error) {
	return campaign.Run(ctx, spec)
}

// DefaultCampaignSpec returns the paper-equivalent campaign over the
// given warehouse and processor axes (auto-tuned clients, warm-started
// probes); customize CheckpointPath, Resume and Observer on the result.
func DefaultCampaignSpec(ws, ps []int) CampaignSpec {
	return experiment.DefaultSpec(ws, ps)
}

// CharacterizeCampaign fits the two-region scaling model to one
// processor configuration of a completed campaign (its ≤800-warehouse
// points): the CPI and MPI pivots and the extrapolation lines.
func CharacterizeCampaign(res *CampaignResult, processors int) (Characterization, error) {
	return experiment.Characterize(res, processors)
}

// NewCampaignProgress returns an observer rendering a live one-line
// progress display on w (typically os.Stderr).
func NewCampaignProgress(w io.Writer, totalPoints int) CampaignObserver {
	return campaign.NewProgress(w, totalPoints)
}

// NewCampaignEventLog returns an observer appending one JSON line per
// campaign event to w — a machine-readable campaign journal.
func NewCampaignEventLog(w io.Writer) CampaignObserver {
	return campaign.NewEventLog(w)
}

// CampaignObservers fans events out to several observers in order.
func CampaignObservers(obs ...CampaignObserver) CampaignObserver {
	return campaign.Observers(obs...)
}

// Replication summarizes repeated measurements under different seeds.
type Replication = experiment.Replication

// Replicate runs one configuration n times with consecutive seeds —
// concurrently, through the campaign worker pool — and summarizes the
// run-to-run spread of the headline metrics. Cancelling ctx stops the
// runs.
func Replicate(ctx context.Context, cfg Config, n int) (Replication, error) {
	return experiment.Replicate(ctx, cfg, n)
}

// StandardWarehouses is the warehouse axis used by the paper's figures.
var StandardWarehouses = experiment.StandardWarehouses

// StandardProcessors are the paper's processor configurations {1, 2, 4}.
var StandardProcessors = experiment.StandardProcessors

// Data containers.
type (
	// Series is an (x, y) series, x being the warehouse count.
	Series = stats.Series
	// Table is an aligned text table in the style of the paper's tables.
	Table = stats.Table
	// Chart renders series as a text line chart.
	Chart = stats.Chart
)

// RenderSeries formats figure series as an aligned text table.
func RenderSeries(title string, series []Series, decimals int) string {
	return experiment.RenderSeries(title, series, decimals)
}

// EMON-style performance-counter sampling (the paper's measurement
// methodology: grouped events, round-robin windows, repeated rotations).
type (
	// EMONConfig is the sampling schedule.
	EMONConfig = perfmon.Config
	// EMONEvent identifies a Table 2 performance-monitoring event.
	EMONEvent = perfmon.Event
	// EMONResult is one event's repeated rate observations.
	EMONResult = perfmon.Result
)

// DefaultEMONConfig mirrors the paper's schedule at the given clock:
// ten-second windows, six rotations.
func DefaultEMONConfig(cyclesPerSecond float64) EMONConfig {
	return perfmon.DefaultConfig(cyclesPerSecond)
}

// EMONEvents returns the Table 2 events in order.
func EMONEvents() []EMONEvent { return perfmon.Events() }

// EMONEventInfo returns an event's Table 2 row (alias, EMON event name,
// description).
func EMONEventInfo(e EMONEvent) (alias, emonEvent, description string) {
	d := perfmon.Table2[e]
	return d.Alias, d.EMONEvent, d.Description
}

// The functional (payload-mode) engine: a small-scale working database
// with real pages, write-ahead redo logging and crash recovery, built on
// the same schema, layout and buffer cache as the simulation.
type (
	// Layout maps the ODB schema onto the block address space for a
	// given warehouse count.
	Layout = odb.Layout
	// FunctionalStore executes row-level transaction effects on real
	// pages and supports Checkpoint, Crash and Recover.
	FunctionalStore = odb.Store
	// TxnGenerator produces ODB transaction programs (the five
	// transaction types in the standard mix).
	TxnGenerator = odb.Generator
	// Txn is one generated transaction instance.
	Txn = odb.Txn
)

// TableID identifies an ODB table or index.
type TableID = odb.TableID

// The ODB schema's heap tables (indices are internal to the engine).
const (
	TableWarehouse = odb.TableWarehouse
	TableDistrict  = odb.TableDistrict
	TableCustomer  = odb.TableCustomer
	TableStock     = odb.TableStock
	TableItem      = odb.TableItem
)

// NewLayout lays out the ODB database for w warehouses.
func NewLayout(warehouses int) *Layout { return odb.NewLayout(warehouses) }

// NewFunctionalStore builds a payload-mode store over the layout with a
// buffer cache of the given block capacity.
func NewFunctionalStore(l *Layout, cacheBlocks int) *FunctionalStore {
	return odb.NewStore(l, cacheBlocks)
}

// NewTxnGenerator builds a deterministic transaction generator.
func NewTxnGenerator(l *Layout, seed int64) *TxnGenerator {
	return odb.NewGenerator(l, xrand.New(seed))
}

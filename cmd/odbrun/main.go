// Command odbrun executes one OLTP configuration on the simulated
// platform and prints its metrics, iron-law decomposition and CPI
// breakdown. It runs a one-point campaign: the point (W, P) with its
// client count pinned to -c goes through campaign.Run, as every point
// of odbsweep and paperrepro does. Each observer rides along on demand
// as a campaign instrument and its file, labelled "W=..,C=..,P=..", is
// written from the point's payload by the instrument's writer, for
// cmd/odbreport, which tells the kinds apart by their contents:
//
//   - -profile: the cycle-attribution profiler's per-phase CPI.
//   - -spans: the span tracer's dump, its per-type aggregates (count,
//     p50/p95/p99 and latency sum over every measured transaction) plus
//     a deterministic sample of span trees. The tracer rides along on
//     every run: its aggregates are the report's latency lines.
//   - -qstats: the queueing observatory's per-resource service-center
//     report (arrivals, utilization, wait demand, operational laws).
//   - -timeline: the warm-up and measure phases and a sample of the
//     machine every -sample simulated milliseconds (1 to 3.6e6; an
//     interval outside that fails the run).
//
// -trace streams every measured memory reference to a file in the trace
// format, for odbreport replay; a run that fails leaves no file.
//
// -json replaces the text report with the run document: the run
// manifest (the campaign's config, seed and provenance) and the point
// as a campaign checkpoint stores it, with keys w, p, c, metrics and
// flight (the payloads by kind; flight.spans.types is the latency
// record).
//
// Usage:
//
//	odbrun [-w warehouses] [-c clients] [-p processors] [-seed n]
//	       [-machine xeon|itanium2] [-engine btree|lsm] [-lsmmem mb]
//	       [-txns n] [-warmup n] [-json]
//	       [-timeline file] [-sample ms] [-profile file]
//	       [-spans file] [-spanhead n] [-qstats file] [-trace file]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"odbscale/cmd/internal/runflags"
	"odbscale/internal/campaign"
	"odbscale/internal/experiment"
	"odbscale/internal/system"
	"odbscale/internal/telemetry"
	"odbscale/internal/txtrace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes one command line, writing the report to stdout.
func run(args []string, stdout io.Writer) error {
	spec := experiment.DefaultSpec(nil, nil)
	spec.AutoTune = false
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	w := fs.Int("w", 100, "warehouses")
	fs.IntVar(&spec.Clients, "c", 16, "concurrent clients")
	p := fs.Int("p", 4, "processors")
	runflags.RegisterSpec(fs, &spec)
	fs.IntVar(&spec.Tuning.LSM.MemtableMB, "lsmmem", spec.Tuning.LSM.MemtableMB,
		"LSM memtable size in MB (ignored by btree)")
	fs.IntVar(&spec.WarmupTxns, "warmup", spec.WarmupTxns, "warm-up transactions")
	jsonOut := fs.Bool("json", false, "emit the run manifest and the point as a campaign checkpoint stores it, as JSON")
	timelineOut := fs.String("timeline", "", "sample the run's timeline and write it as JSON to this file")
	sampleMS := fs.Float64("sample", 100, "timeline sample interval in simulated milliseconds")
	profileOut := fs.String("profile", "", "profile cycle attribution and write the profile as JSON to this file")
	spansOut := fs.String("spans", "", "trace transaction spans and write the dump as JSON to this file")
	spanHead := fs.Int("spanhead", txtrace.DefaultHeadEvery, "head-sample every Nth measured transaction (-1 disables head sampling)")
	qstatsOut := fs.String("qstats", "", "collect service-center metrics and write the report as JSON to this file")
	traceOut := fs.String("trace", "", "write every measured memory reference to this file in the trace format")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A campaign hands a point with no pinned count to the client
	// heuristic, so a count below one is refused here.
	if spec.Clients < 1 {
		return fmt.Errorf("odbrun: %w: C=%d", system.ErrBadConfig, spec.Clients)
	}
	spec.Warehouses, spec.Processors = []int{*w}, []int{*p}

	// The span tracer always rides along: its per-type aggregates are
	// the latency record. Every other instrument rides along when its
	// file is named.
	outputs := []struct {
		path string
		in   campaign.Instrument
	}{
		{*profileOut, campaign.Profiles()},
		{*spansOut, campaign.Spans(txtrace.Config{HeadEvery: *spanHead})},
		{*qstatsOut, campaign.QueueStats()},
		{*timelineOut, campaign.Timeline(*sampleMS)},
	}
	for _, o := range outputs {
		if o.path != "" || o.in.Kind() == "spans" {
			spec.Instruments = append(spec.Instruments, o.in)
		}
	}
	runner := &campaign.Runner{Spec: spec}
	var refs uint64
	if *traceOut != "" {
		runner.RunFunc = func(ctx context.Context, cfg system.Config, att []campaign.Attached) (system.Metrics, error) {
			f, err := os.Create(*traceOut)
			if err != nil {
				return system.Metrics{}, err
			}
			m, err := campaign.DefaultRun(ctx, cfg, append(att, traceRun{f, &refs}))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				os.Remove(*traceOut)
			}
			return m, err
		}
	}
	started := time.Now()
	res, err := runner.Run(context.Background())
	if err != nil {
		return err
	}
	wall := time.Since(started)
	if *traceOut != "" {
		log.Printf("captured %d memory references to %s", refs, *traceOut)
	}

	pt, _ := res.Point(*w, *p)
	for _, o := range outputs {
		if o.path == "" {
			continue
		}
		raw := pt.Flight[o.in.Kind()]
		if raw == nil {
			return fmt.Errorf("%s: run finished without a payload", o.in.Kind())
		}
		var b bytes.Buffer
		if err := o.in.Write(&b, raw); err != nil {
			return err
		}
		if err := os.WriteFile(o.path, b.Bytes(), 0o666); err != nil {
			return err
		}
	}

	if *jsonOut {
		man, err := spec.Manifest("odbrun")
		if err != nil {
			return err
		}
		man.CreatedAt = started.UTC().Format(time.RFC3339)
		man.WallSeconds = wall.Seconds()
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		return enc.Encode(struct {
			Manifest *telemetry.Manifest `json:"manifest"`
			campaign.CheckpointPoint
		}{man, pt})
	}

	var dump txtrace.Dump
	if err := json.Unmarshal(pt.Flight["spans"], &dump); err != nil {
		return err
	}
	m := pt.Metrics
	fmt.Fprintln(stdout, m)
	fmt.Fprintf(stdout, "  user: IPX=%.2fM CPI=%.2f MPI=%.4f\n", m.UserIPX/1e6, m.UserCPI, m.UserMPI)
	fmt.Fprintf(stdout, "  os:   IPX=%.2fM CPI=%.2f MPI=%.4f share=%.2f\n", m.OSIPX/1e6, m.OSCPI, m.OSMPI, m.OSShare)
	fmt.Fprintf(stdout, "  io:   read=%.1fKB write=%.1fKB log=%.1fKB hit=%.3f diskUtil=%.2f lat=%.1fms\n",
		m.ReadKBPerTxn, m.WriteKBPerTxn, m.LogKBPerTxn, m.BufferHitRatio, m.DiskUtil, m.ReadLatencyMS)
	fmt.Fprintf(stdout, "  bus:  time=%.0f util=%.2f coherShare=%.4f\n", m.BusTime, m.BusUtil, m.CoherenceShare)
	fmt.Fprintf(stdout, "  engine: %s wamp=%.2f ramp=%.2f samp=%.3f stalls=%.3f/txn\n",
		m.Engine, m.WriteAmp, m.ReadAmp, m.SpaceAmp, m.WriteStallsPerTxn)
	fmt.Fprintf(stdout, "  cpi breakdown: %s\n", m.Breakdown)
	fmt.Fprintf(stdout, "  iron law check: P*F/(IPX*CPI)*util = %.0f TPS (measured %.0f)\n",
		float64(m.Processors)*spec.Machine.FreqHz/(m.IPX*m.CPI)*m.CPUUtil, m.TPS)
	ms := 1e3 / dump.Meta.FreqHz
	for _, ts := range dump.Types {
		if ts.Count == 0 {
			fmt.Fprintf(stdout, "  latency %-12s n=0     (no measured commits)\n", ts.Type)
			continue
		}
		fmt.Fprintf(stdout, "  latency %-12s n=%-5d mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms\n",
			ts.Type, ts.Count, float64(ts.SumLatency)/float64(ts.Count)*ms, ts.P50*ms, ts.P95*ms, ts.P99*ms)
	}
	return nil
}

// traceRun is the reference trace's handle on the run: a stream of
// references to w, counted in refs, that leaves no payload.
type traceRun struct {
	w    io.Writer
	refs *uint64
}

func (t traceRun) Option() system.Option { return system.WithTrace(t.w, t.refs) }

func (traceRun) Finish(bool) (json.RawMessage, error) { return nil, nil }

// Command odbrun executes one OLTP configuration on the simulated
// platform and prints its metrics, iron-law decomposition and CPI
// breakdown. It is the one capture path for a single run: each
// observer rides along on demand and writes a file for cmd/odbreport,
// which tells the kinds apart by their contents.
//
// -json replaces the text report with a machine-readable document
// bundling the run manifest (config, seed, provenance), the final
// metrics and the per-type latency aggregates.
//
// The cycle-attribution profiler: -profile writes the run's per-phase
// CPI attribution as JSON.
//
// The span tracer rides along on every run: its per-type aggregates
// (count, p50/p95/p99 and latency sum over every measured transaction)
// are the report's latency lines and the -json "latency" array. -spans
// writes its dump as JSON: those aggregates plus a deterministic sample
// of per-transaction span trees (head sampling plus the slowest per
// type).
//
// The queueing observatory: -qstats collects per-resource
// service-center metrics (arrivals, utilization, wait demand,
// operational-law audit) and writes the report as JSON (odbreport
// report prints it as text).
//
// The timeline: -timeline writes the run's warm-up and measure phase
// spans and a sample of the simulated machine every -sample simulated
// milliseconds (1 to 3.6e6; an interval outside that fails the run) as
// JSON (odbreport report prints the samples as a CSV table).
//
// The reference trace: -trace writes every measured memory reference
// in the trace format, for odbreport replay.
//
// The profile, span, queueing and timeline observers attach through
// the campaign instruments, the first three of which odbsweep runs at
// every point, and their files come from the instruments' writers; each
// is labelled "W=..,C=..,P=..".
//
// Usage:
//
//	odbrun [-w warehouses] [-c clients] [-p processors] [-seed n]
//	       [-machine xeon|itanium2] [-engine btree|lsm] [-lsmmem mb]
//	       [-txns n] [-warmup n] [-nocoherence] [-json]
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
	"strings"
	"time"

	"odbscale/cmd/internal/runflags"
	"odbscale/internal/campaign"
	"odbscale/internal/engine"
	"odbscale/internal/system"
	"odbscale/internal/telemetry"
	"odbscale/internal/txtrace"
)

// report is the -json output document.
type report struct {
	Manifest *telemetry.Manifest `json:"manifest"`
	Metrics  system.Metrics      `json:"metrics"`
	Latency  []txtrace.TypeStat  `json:"latency"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes one command line, writing the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	w := fs.Int("w", 100, "warehouses")
	c := fs.Int("c", 16, "concurrent clients")
	p := fs.Int("p", 4, "processors")
	seed := fs.Int64("seed", 1, "random seed")
	machine := fs.String("machine", "xeon", "platform: xeon or itanium2")
	engineName := fs.String("engine", engine.DefaultName,
		fmt.Sprintf("storage engine: %s", strings.Join(engine.Names(), " or ")))
	lsmMem := fs.Int("lsmmem", engine.DefaultLSMTuning().MemtableMB,
		"LSM memtable size in MB (ignored by btree)")
	txns := fs.Int("txns", 2400, "measured transactions")
	warmup := fs.Int("warmup", system.DefaultConfig(1, 1, 1).WarmupTxns, "warm-up transactions")
	nocoh := fs.Bool("nocoherence", false, "disable MESI coherence")
	jsonOut := fs.Bool("json", false, "emit the run manifest, metrics and per-type latency as JSON")
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

	cfg := system.DefaultConfig(*w, *c, *p)
	cfg.Seed = *seed
	cfg.MeasureTxns = *txns
	cfg.WarmupTxns = *warmup
	cfg.Coherent = !*nocoh
	cfg.Engine = *engineName
	cfg.Tuning.LSM.MemtableMB = *lsmMem
	mc, err := runflags.Machine(*machine)
	if err != nil {
		return err
	}
	cfg.Machine = mc
	label := fmt.Sprintf("W=%d,C=%d,P=%d", *w, *c, *p)

	var opts []system.Option
	// Each observer attaches through its campaign instrument; its payload
	// goes to its file after the run, if one was named. The span tracer
	// always attaches: its per-type aggregates are the latency record.
	type observer struct {
		path string
		in   campaign.Instrument
		att  campaign.Attached
	}
	spans := &observer{path: *spansOut, in: campaign.Spans(txtrace.Config{HeadEvery: *spanHead})}
	var observers []*observer
	for _, o := range []*observer{
		{path: *profileOut, in: campaign.Profiles()},
		spans,
		{path: *qstatsOut, in: campaign.QueueStats()},
		{path: *timelineOut, in: campaign.Timeline(*sampleMS)},
	} {
		if o.path != "" || o == spans {
			o.att = o.in.Start(label, cfg)
			opts = append(opts, o.att.Option())
			observers = append(observers, o)
		}
	}
	var traceFile *os.File
	var refs uint64
	if *traceOut != "" {
		if traceFile, err = os.Create(*traceOut); err != nil {
			return err
		}
		opts = append(opts, system.WithTrace(traceFile, &refs))
	}
	started := time.Now()
	m, err := system.Run(context.Background(), cfg, opts...)
	if err != nil {
		return err
	}
	wall := time.Since(started)

	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return err
		}
		log.Printf("captured %d memory references to %s", refs, *traceOut)
	}
	var dump txtrace.Dump
	for _, o := range observers {
		raw, err := o.att.Finish(true)
		if err != nil {
			return err
		}
		if raw == nil {
			return fmt.Errorf("%s: run finished without a payload", o.in.Kind())
		}
		if o == spans {
			if err := json.Unmarshal(raw, &dump); err != nil {
				return err
			}
		}
		if o.path == "" {
			continue
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
		man := telemetry.NewManifest("odbrun", *seed)
		man.Engine = m.Engine
		man.CreatedAt = started.UTC().Format(time.RFC3339)
		man.WallSeconds = wall.Seconds()
		if err := man.SetConfig(cfg); err != nil {
			return err
		}
		rep := report{Manifest: man, Metrics: m, Latency: dump.Types}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
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
			float64(m.Processors)*cfg.Machine.FreqHz/(m.IPX*m.CPI)*m.CPUUtil, m.TPS)
		ms := 1e3 / dump.Meta.FreqHz
		for _, ts := range dump.Types {
			if ts.Count == 0 {
				fmt.Fprintf(stdout, "  latency %-12s n=0     (no measured commits)\n", ts.Type)
				continue
			}
			fmt.Fprintf(stdout, "  latency %-12s n=%-5d mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms\n",
				ts.Type, ts.Count, float64(ts.SumLatency)/float64(ts.Count)*ms, ts.P50*ms, ts.P95*ms, ts.P99*ms)
		}
	}
	return nil
}

// Command odbsweep runs a warehouse × processor campaign and prints a
// metrics table per configuration — the raw data behind the paper's
// Figures 2-16. All runs go through the campaign runner: one bounded
// worker pool schedules every measurement point and tuner probe, a live
// progress line tracks the campaign on stderr, and -checkpoint/-resume
// make interrupted campaigns restartable (Ctrl-C is caught so the
// checkpoint stays valid).
//
// Client counts: -c 0 (the default) auto-tunes every point to the
// paper's ≥90% CPU-utilization target through the campaign runner's
// warm-started, memoized search, and -heuristic picks each point's
// count with the static client heuristic instead. A positive -c pins a
// fixed client count; a negative one is rejected.
//
// Output: aligned text by default, -csv for CSV, -json for one JSON
// object per point; -events appends a machine-readable campaign event
// log. With -checkpoint, a run manifest (config, seed, provenance) is
// written next to the checkpoint file at campaign start and completion.
//
// Each observer is one flag naming a directory, which receives one JSON
// file per point (e.g. W10-P1.json) for offline analysis. The files are
// written from the payloads the campaign checkpoints, so a resumed
// campaign writes the same files without re-running a point:
//
// -profile DIR turns on the cycle-attribution profiler: every point
// runs under system.Run with WithProfiler, per-point profiles persist
// in the checkpoint (when one is configured) and are written to DIR for
// odbreport, and after the campaign each processor lane prints the
// attribution shift across the cached-to-scaled pivot — the smallest-W
// profile diffed against the largest-W one.
//
// -spans DIR turns on the per-transaction span tracer the same way:
// every point runs under system.Run with WithSpans, per-point trace
// dumps persist in the checkpoint and are written to DIR for odbreport,
// and after the campaign each processor lane prints the wait-state
// shift across the pivot.
//
// -qstats DIR turns on the queueing observatory: every point runs under
// system.Run with WithQueueStats, per-point station reports persist in
// the checkpoint and are written to DIR for odbreport, and after the
// campaign each processor lane prints the bottleneck-shift table across
// the warehouse sweep.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"odbscale/cmd/internal/runflags"
	"odbscale/internal/campaign"
	"odbscale/internal/engine"
	"odbscale/internal/experiment"
	"odbscale/internal/profile"
	"odbscale/internal/qstats"
	"odbscale/internal/txtrace"
)

func parseInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			log.Fatalf("bad integer list %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out
}

func main() {
	ws := flag.String("w", "10,25,50,100,200,300,500,800", "warehouse counts")
	ps := flag.String("p", "4", "processor counts")
	clients := flag.Int("c", 0, "fixed client count (0 = auto-tune each point to the ≥90% utilization target via the campaign runner)")
	heuristic := flag.Bool("heuristic", false, "with -c 0, use the static client heuristic instead of the tuner")
	txns := flag.Int("txns", 2400, "measured transactions per point")
	tuneTxns := flag.Int("tunetxns", 1200, "measured transactions per tuner probe")
	seed := flag.Int64("seed", 1, "random seed")
	machine := flag.String("machine", "xeon", "platform: xeon or itanium2")
	engineName := flag.String("engine", engine.DefaultName,
		fmt.Sprintf("storage engine: %s", strings.Join(engine.Names(), " or ")))
	par := flag.Int("par", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	profileDir := flag.String("profile", "", "run every point under the cycle-attribution profiler, write each point's profile JSON into this directory and print the attribution shift across the cached-to-scaled pivot")
	spanDir := flag.String("spans", "", "run every point under the span tracer, write each point's trace dump JSON into this directory and print the wait-state shift across the pivot")
	qstatsDir := flag.String("qstats", "", "run every point under the queueing observatory, write each point's station report JSON into this directory and print the bottleneck-shift table across the sweep")
	csv := flag.Bool("csv", false, "CSV output")
	jsonOut := flag.Bool("json", false, "JSON output (one object per point)")
	camp := runflags.RegisterCampaign(flag.CommandLine)
	flag.Parse()

	mc, err := runflags.Machine(*machine)
	if err != nil {
		log.Fatal(err)
	}
	warehouses, processors := parseInts(*ws), parseInts(*ps)
	spec := experiment.DefaultSpec(warehouses, processors)
	spec.Machine = mc
	spec.Seed = *seed
	spec.Engine = *engineName
	spec.MeasureTxns = *txns
	spec.TuneTxns = *tuneTxns
	spec.AutoTune = *clients == 0 && !*heuristic
	spec.Clients = *clients
	spec.Parallelism = *par

	// Each requested observer: its instrument, its output directory, and
	// the pivot table printed from its payloads after the campaign.
	type observer struct {
		in   campaign.Instrument
		dir  string
		noun string
		emit func(*campaign.Result)
	}
	var observers []observer
	if *profileDir != "" {
		observers = append(observers, observer{campaign.Profiles(), *profileDir, "profiles", emitProfiles})
	}
	if *spanDir != "" {
		observers = append(observers, observer{campaign.Spans(txtrace.Config{}), *spanDir, "trace dumps", emitSpans})
	}
	if *qstatsDir != "" {
		observers = append(observers, observer{campaign.QueueStats(), *qstatsDir, "station reports", emitQStats})
	}
	for _, o := range observers {
		spec.Instruments = append(spec.Instruments, o.in)
	}

	res, err := camp.Run(spec)
	if err != nil {
		log.Fatal(err)
	}

	if *csv {
		fmt.Println("w,p,c,engine,tps,ipx,useripx,osipx,cpi,usercpi,oscpi,mpi,usermpi,osmpi,util,osshare,readkb,writekb,logkb,ctxsw,bustime,busutil,cohershare,bufferhit,diskutil,writeamp,readamp,spaceamp,writestalls")
	}
	enc := json.NewEncoder(os.Stdout)
	for _, p := range processors {
		for _, m := range res.Series(p) {
			switch {
			case *jsonOut:
				if err := enc.Encode(m); err != nil {
					log.Fatal(err)
				}
			case *csv:
				fmt.Printf("%d,%d,%d,%s,%.1f,%.0f,%.0f,%.0f,%.3f,%.3f,%.3f,%.5f,%.5f,%.5f,%.3f,%.3f,%.2f,%.2f,%.2f,%.2f,%.1f,%.3f,%.4f,%.4f,%.3f,%.3f,%.3f,%.3f,%.4f\n",
					m.Warehouses, m.Processors, m.Clients, m.Engine, m.TPS, m.IPX, m.UserIPX, m.OSIPX,
					m.CPI, m.UserCPI, m.OSCPI, m.MPI, m.UserMPI, m.OSMPI, m.CPUUtil, m.OSShare,
					m.ReadKBPerTxn, m.WriteKBPerTxn, m.LogKBPerTxn, m.CtxSwitchPerTxn,
					m.BusTime, m.BusUtil, m.CoherenceShare, m.BufferHitRatio, m.DiskUtil,
					m.WriteAmp, m.ReadAmp, m.SpaceAmp, m.WriteStallsPerTxn)
			default:
				fmt.Println(m)
			}
		}
	}

	for _, o := range observers {
		writeEach(res, o.in, o.dir, o.noun)
		o.emit(res)
	}
}

// writeEach writes every point's payload of in's kind into dir through
// the instrument's writer, one <point>.json file each (e.g.
// W10-P1.json), for offline analysis.
func writeEach(res *campaign.Result, in campaign.Instrument, dir, noun string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	n := 0
	for _, p := range res.Processors {
		for _, w := range res.Warehouses {
			raw := res.Payload(w, p, in.Kind())
			if raw == nil {
				continue
			}
			f, err := os.Create(filepath.Join(dir, fmt.Sprintf("W%d-P%d.json", w, p)))
			if err != nil {
				log.Fatal(err)
			}
			if err := in.Write(f, raw); err != nil {
				f.Close()
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			n++
		}
	}
	log.Printf("wrote %d %s to %s", n, noun, dir)
}

// payload decodes one point's payload of the given kind, or returns nil
// when the point has none.
func payload[T any](res *campaign.Result, w, p int, kind string) *T {
	raw := res.Payload(w, p, kind)
	if raw == nil {
		return nil
	}
	v := new(T)
	if err := json.Unmarshal(raw, v); err != nil {
		log.Fatalf("W=%d P=%d: %s payload: %v", w, p, kind, err)
	}
	return v
}

// emitProfiles prints the attribution shift across the cached-to-scaled
// pivot — the smallest-W point diffed against the largest-W one — for
// each processor lane.
func emitProfiles(res *campaign.Result) {
	warehouses := res.Warehouses
	if len(warehouses) < 2 {
		return
	}
	for _, p := range res.Processors {
		lo := payload[profile.Profile](res, warehouses[0], p, "profile")
		hi := payload[profile.Profile](res, warehouses[len(warehouses)-1], p, "profile")
		if lo == nil || hi == nil {
			continue
		}
		fmt.Printf("\nattribution shift across the pivot, P=%d (%s -> %s):\n",
			p, lo.Meta.Label, hi.Meta.Label)
		if err := profile.Diff(lo, hi).Write(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

// emitSpans prints the wait-state shift across the pivot for each
// processor lane.
func emitSpans(res *campaign.Result) {
	warehouses := res.Warehouses
	if len(warehouses) < 2 {
		return
	}
	for _, p := range res.Processors {
		lo := payload[txtrace.Dump](res, warehouses[0], p, "spans")
		hi := payload[txtrace.Dump](res, warehouses[len(warehouses)-1], p, "spans")
		if lo == nil || hi == nil {
			continue
		}
		fmt.Printf("\nwait-state shift across the pivot, P=%d (%s -> %s):\n",
			p, lo.Meta.Label, hi.Meta.Label)
		if err := txtrace.WriteDiff(os.Stdout, lo, hi); err != nil {
			log.Fatal(err)
		}
	}
}

// emitQStats prints the bottleneck-shift table — wait demand per
// station down the warehouse sweep — for each processor lane.
func emitQStats(res *campaign.Result) {
	warehouses := res.Warehouses
	if len(warehouses) < 2 {
		return
	}
	for _, p := range res.Processors {
		var reports []*qstats.Report
		for _, w := range warehouses {
			if r := payload[qstats.Report](res, w, p, "qstats"); r != nil {
				reports = append(reports, r)
			}
		}
		if len(reports) < 2 {
			continue
		}
		fmt.Println()
		if err := qstats.WriteShiftTable(os.Stdout, reports); err != nil {
			log.Fatal(err)
		}
	}
}

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
// warm-started, memoized search. (Earlier versions silently fell back
// to a static heuristic for -c 0; use -heuristic for that behaviour.)
// A positive -c pins a fixed client count; a negative one is rejected.
//
// Output: aligned text by default, -csv for CSV, -json for one JSON
// object per point; -events appends a machine-readable campaign event
// log. With -checkpoint, a run manifest (config, seed, provenance) is
// written next to the checkpoint file at campaign start and completion.
//
// Each observer is one flag naming a directory, which receives one JSON
// file per point (e.g. W10-P1.json) for offline analysis:
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
	"io"
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
	clients := flag.Int("c", 0, "fixed client count (0 = auto-tune each point to the ≥90% utilization target via the campaign runner; was: static heuristic)")
	heuristic := flag.Bool("heuristic", false, "with -c 0, use the static client heuristic instead of the tuner (the old -c 0 behaviour)")
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

	var profiles *campaign.Store[*profile.Profile]
	if *profileDir != "" {
		profiles = campaign.NewStore[*profile.Profile]()
		spec.Instruments = append(spec.Instruments, campaign.Profiles(profiles))
	}
	var spans *campaign.Store[*txtrace.Dump]
	if *spanDir != "" {
		spans = campaign.NewStore[*txtrace.Dump]()
		spec.Instruments = append(spec.Instruments, campaign.Spans(txtrace.Config{}, spans))
	}
	var stations *campaign.Store[*qstats.Report]
	if *qstatsDir != "" {
		stations = campaign.NewStore[*qstats.Report]()
		spec.Instruments = append(spec.Instruments, campaign.QueueStats(stations))
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

	if profiles != nil {
		writeEach(profiles, *profileDir, "profiles", (*profile.Profile).Encode)
		emitProfiles(profiles, warehouses, processors)
	}
	if spans != nil {
		writeEach(spans, *spanDir, "trace dumps", (*txtrace.Dump).Write)
		emitSpans(spans, warehouses, processors)
	}
	if stations != nil {
		writeEach(stations, *qstatsDir, "station reports", (*qstats.Report).WriteJSON)
		emitQStats(stations, warehouses, processors)
	}
}

// writeEach writes every point's payload in st into dir, one
// <point>.json file each (e.g. W10-P1.json), for offline analysis.
func writeEach[T any](st *campaign.Store[T], dir, noun string, write func(T, io.Writer) error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	keys := st.Keys()
	for _, key := range keys {
		name := strings.NewReplacer("=", "", ",", "-").Replace(key) + ".json"
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			log.Fatal(err)
		}
		if err := write(st.Get(key), f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("wrote %d %s to %s", len(keys), noun, dir)
}

// emitProfiles prints the attribution shift across the cached-to-scaled
// pivot — the smallest-W point diffed against the largest-W one — for
// each processor lane.
func emitProfiles(st *campaign.Store[*profile.Profile], warehouses, processors []int) {
	if len(warehouses) < 2 {
		return
	}
	for _, p := range processors {
		lo := st.Get(campaign.PointName(warehouses[0], p))
		hi := st.Get(campaign.PointName(warehouses[len(warehouses)-1], p))
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
func emitSpans(st *campaign.Store[*txtrace.Dump], warehouses, processors []int) {
	if len(warehouses) < 2 {
		return
	}
	for _, p := range processors {
		lo := st.Get(campaign.PointName(warehouses[0], p))
		hi := st.Get(campaign.PointName(warehouses[len(warehouses)-1], p))
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
func emitQStats(st *campaign.Store[*qstats.Report], warehouses, processors []int) {
	if len(warehouses) < 2 {
		return
	}
	for _, p := range processors {
		var reports []*qstats.Report
		for _, w := range warehouses {
			if r := st.Get(campaign.PointName(w, p)); r != nil {
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

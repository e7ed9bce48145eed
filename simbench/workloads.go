package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"odbscale/internal/core"
	"odbscale/internal/system"
)

// workloadSpec is one named simulator configuration the benchmark times.
type workloadSpec struct {
	name       string
	w, p, c    int
	engine     string
	warmupTxns int
	txns       int // measured transactions per run
}

// workloads are the benchmark's named configurations. Each is one
// closed-loop simulation: the simulated clients are the load generator.
var workloads = []workloadSpec{
	// The whole database fits in the buffer cache: CPU-bound, almost all
	// host time in the reference synthesizer stack.
	{name: "cached", w: 10, p: 4, c: system.HeuristicClients(10, 4), engine: "btree", warmupTxns: 500, txns: 3000},
	// The paper's I/O-bound point: buffer-cache misses, disk reads, dirty
	// evictions and the DB writer; prefill dominates set-up.
	{name: "scaled", w: 1200, p: 4, c: 64, engine: "btree", warmupTxns: 500, txns: 2500},
	// The LSM engine: memtable writes, flushes and compaction, the only
	// workload where engine maintenance does real work.
	{name: "lsm", w: 200, p: 4, c: system.HeuristicClients(200, 4), engine: "lsm", warmupTxns: 500, txns: 3000},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workloadSpec{}, false
}

// config is the workload's run configuration for one seed.
func (wl workloadSpec) config(seed int64) system.Config {
	cfg := system.DefaultConfig(wl.w, wl.c, wl.p)
	cfg.Seed = seed
	cfg.Engine = wl.engine
	cfg.WarmupTxns = wl.warmupTxns
	cfg.MeasureTxns = wl.txns
	return cfg
}

// setupConfig is the same configuration cut down to one measured
// transaction: timing it measures machine build, engine construction
// and buffer-cache prefill.
func (wl workloadSpec) setupConfig(seed int64) system.Config {
	cfg := wl.config(seed)
	cfg.WarmupTxns = 0
	cfg.MeasureTxns = 1
	return cfg
}

// fingerprints maps workload name → seed → the JSON-encoded Metrics a run
// of that workload at that seed must reproduce exactly.
type fingerprints map[string]map[string]json.RawMessage

//go:embed fingerprints.json
var embedded embed.FS

func loadFingerprints() (fingerprints, error) {
	data, err := embedded.ReadFile("fingerprints.json")
	if err != nil {
		return nil, err
	}
	fp := fingerprints{}
	if err := json.Unmarshal(data, &fp); err != nil {
		return nil, fmt.Errorf("decode fingerprints: %w", err)
	}
	return fp, nil
}

// lookup returns the recorded metrics for a workload and seed, or nil.
func (fp fingerprints) lookup(name string, seed int64) json.RawMessage {
	return fp[name][strconv.FormatInt(seed, 10)]
}

// encode renders the fingerprint file: one line per seed, seeds in
// numeric order, so a re-recording diffs line by line.
func (fp fingerprints) encode() []byte {
	var b bytes.Buffer
	names := make([]string, 0, len(fp))
	for name := range fp {
		names = append(names, name)
	}
	sort.Strings(names)
	b.WriteString("{\n")
	for i, name := range names {
		fmt.Fprintf(&b, "  %q: {\n", name)
		seeds := make([]int64, 0, len(fp[name]))
		for s := range fp[name] {
			n, err := strconv.ParseInt(s, 10, 64)
			if err == nil {
				seeds = append(seeds, n)
			}
		}
		sort.Slice(seeds, func(a, c int) bool { return seeds[a] < seeds[c] })
		for j, s := range seeds {
			var line bytes.Buffer
			_ = json.Compact(&line, fp[name][strconv.FormatInt(s, 10)]) // recorded by json.Marshal: always valid
			fmt.Fprintf(&b, "    \"%d\": %s", s, line.Bytes())
			if j < len(seeds)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("  }")
		if i < len(names)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return b.Bytes()
}

// checkMetrics is the correctness check of one run: every field of want
// must equal the run's JSON-encoded value exactly. encoding/json
// round-trips float64 exactly, so this is a bit-level comparison. Fields
// the run has and want lacks are ignored, so a golden recorded before
// Metrics grew a field still applies.
func checkMetrics(m system.Metrics, want json.RawMessage) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("encode metrics: %w", err)
	}
	var got, exp map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		return fmt.Errorf("decode metrics: %w", err)
	}
	if err := json.Unmarshal(want, &exp); err != nil {
		return fmt.Errorf("decode fingerprint: %w", err)
	}
	return compareKeys("", exp, got)
}

func compareKeys(path string, want, got map[string]any) error {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p := k
		if path != "" {
			p = path + "." + k
		}
		gv, ok := got[k]
		if !ok {
			return fmt.Errorf("%s: missing from run metrics", p)
		}
		wm, wIsMap := want[k].(map[string]any)
		gm, gIsMap := gv.(map[string]any)
		if wIsMap && gIsMap {
			if err := compareKeys(p, wm, gm); err != nil {
				return err
			}
			continue
		}
		if fmt.Sprint(want[k]) != fmt.Sprint(gv) {
			return fmt.Errorf("%s: fingerprint %v, run %v", p, want[k], gv)
		}
	}
	return nil
}

// checkIronLaw verifies TPS = util·P·F / (IPX·CPI) within 2%.
func checkIronLaw(cfg system.Config, m system.Metrics) error {
	law := core.IronLaw{
		Processors:  m.Processors,
		FrequencyHz: cfg.Machine.FreqHz,
		IPX:         m.IPX,
		CPI:         m.CPI,
		Utilization: m.CPUUtil,
	}
	return law.Verify(m.TPS, 0.02)
}

// Command simbench is the repository's benchmark of the simulator's own
// speed. It times full simulations through system.Run on named
// workloads, checks every run's simulated output against a recorded
// fingerprint, and prints one JSON result line. See README.md.
//
// Usage, from the repository root:
//
//	bash simbench/run.sh --workload cached --seed 1 --seconds 20 --trace 0
//	bash simbench/run.sh --workload cached --seed 1 --seconds 20 --trace 1
//	bash simbench/run.sh --record --workload cached --seeds 0-15
//	bash simbench/run.sh --compare base-dir head-dir
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"odbscale/internal/system"
)

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a benchmark run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostInfo records where and what a result measured, so results from
// different machines are never compared as if alike.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Engine     string `json:"engine"`
	Trace      int    `json:"trace"`
	Seconds    int    `json:"seconds"`
}

func currentHost(wl workloadSpec, seed int64, trace, seconds int) hostInfo {
	return hostInfo{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workload:   wl.name,
		Seed:       seed,
		Engine:     wl.engine,
		Trace:      trace,
		Seconds:    seconds,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// checker runs system.Run and applies the correctness check to every
// run: no error, metrics equal to the recorded fingerprint (when one
// exists for the seed), metrics identical to the process's first run of
// the same configuration, and the iron law within 2%.
type checker struct {
	want      json.RawMessage
	first     []byte
	attempted int
	failed    int
}

// run executes one full timed run and reports its wall time and metrics.
func (c *checker) run(ctx context.Context, cfg system.Config) (time.Duration, system.Metrics) {
	c.attempted++
	start := time.Now()
	m, err := system.Run(ctx, cfg)
	elapsed := time.Since(start)
	if err == nil {
		err = c.check(cfg, m)
	}
	if err != nil {
		c.failed++
		fmt.Fprintln(os.Stderr, "simbench: run failed:", err)
	}
	return elapsed, m
}

func (c *checker) check(cfg system.Config, m system.Metrics) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if c.first == nil {
		c.first = raw
	} else if string(raw) != string(c.first) {
		return fmt.Errorf("metrics differ from the first run of this configuration")
	}
	if c.want != nil {
		if err := checkMetrics(m, c.want); err != nil {
			return fmt.Errorf("fingerprint mismatch: %w", err)
		}
	}
	return checkIronLaw(cfg, m)
}

// setupRuns is how many set-up-only runs setup_s is the median of.
const setupRuns = 11

// minRuns is the fewest timed runs a measurement makes, however short
// its time budget.
const minRuns = 3

// measureSetup times set-up-only runs and returns their median wall
// seconds. Set-up runs have no fingerprint; they count as failed only on
// error.
func measureSetup(ctx context.Context, wl workloadSpec, seed int64, c *checker, clk *refClock) float64 {
	secs := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		debug.FreeOSMemory()
		c.attempted++
		var err error
		ns := clk.around(func() time.Duration {
			start := time.Now()
			_, err = system.Run(ctx, wl.setupConfig(seed))
			return time.Since(start)
		})
		secs = append(secs, ns/1e9)
		if err != nil {
			c.failed++
			fmt.Fprintln(os.Stderr, "simbench: set-up run failed:", err)
		}
	}
	return median(secs)
}

// endToEnd measures the end-to-end metrics with no profiling attached.
// Times are scaled to the reference host (see refClock).
func endToEnd(ctx context.Context, wl workloadSpec, seed int64, budget time.Duration, c *checker) map[string]metric {
	clk := &refClock{}
	setup := measureSetup(ctx, wl, seed, c, clk)
	cfg := wl.config(seed)
	txns := float64(cfg.WarmupTxns + cfg.MeasureTxns)
	var perTxn, rss []float64
	start := time.Now()
	for len(perTxn) < minRuns || time.Since(start) < budget {
		// Return every free page to the OS first, so each run's resident
		// set is what the run itself touches, whatever the scavenger did
		// with earlier runs' memory.
		debug.FreeOSMemory()
		var ns float64
		peak := peakRSSDuring(func() {
			ns = clk.around(func() time.Duration {
				dt, _ := c.run(ctx, cfg)
				return dt
			})
		})
		perTxn = append(perTxn, ns/txns)
		rss = append(rss, peak)
		fmt.Fprintf(os.Stderr, "simbench: run %d: %.0f wall ns/txn, kernel %.1f ms, peak RSS %.1f MiB\n",
			len(perTxn), ns/txns, clk.samples[len(clk.samples)-1]/1e6, peak)
	}
	scale := clk.scale()
	return map[string]metric{
		"host_ns_per_txn": {median(perTxn) * scale, "ns"},
		"setup_s":         {setup * scale, "s"},
		"peak_rss_mb":     {median(rss), "MiB"},
	}
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// parseSeeds parses "n" or "a-b" into a seed list.
func parseSeeds(s string) ([]int64, error) {
	lo, hi, isRange := strings.Cut(s, "-")
	if !isRange {
		hi = lo
	}
	a, err1 := strconv.ParseInt(lo, 10, 64)
	b, err2 := strconv.ParseInt(hi, 10, 64)
	if err1 != nil || err2 != nil || b < a {
		return nil, fmt.Errorf("bad seeds %q: want n or a-b", s)
	}
	var out []int64
	for x := a; x <= b; x++ {
		out = append(out, x)
	}
	return out, nil
}

// record re-runs a workload at each seed and stores its metrics as the
// new fingerprint, after checking the iron law and run-to-run identity.
func record(ctx context.Context, wl workloadSpec, seeds []int64, path string) error {
	fp := fingerprints{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &fp); err != nil {
			return fmt.Errorf("decode %s: %w", path, err)
		}
	}
	if fp[wl.name] == nil {
		fp[wl.name] = map[string]json.RawMessage{}
	}
	for _, seed := range seeds {
		cfg := wl.config(seed)
		c := &checker{}
		for i := 0; i < 2; i++ {
			c.run(ctx, cfg)
		}
		if c.failed > 0 {
			return fmt.Errorf("%s seed %d: runs failed the check", wl.name, seed)
		}
		fp[wl.name][strconv.FormatInt(seed, 10)] = c.first
		fmt.Fprintf(os.Stderr, "simbench: recorded %s seed %d\n", wl.name, seed)
	}
	return os.WriteFile(path, fp.encode(), 0o644)
}

func main() {
	name := flag.String("workload", "", "workload name: cached, scaled or lsm")
	seed := flag.Int64("seed", 1, "workload seed (system.Config.Seed)")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics, unprofiled; 1: per-layer metrics")
	recordFlag := flag.Bool("record", false, "re-record the workload's fingerprints for -seeds")
	seedList := flag.String("seeds", "1", "seeds to record: n or a-b")
	compareFlag := flag.Bool("compare", false, "compare two directories of result files: base head")
	flag.Parse()

	ctx := context.Background()
	if *compareFlag {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: simbench --compare base-dir head-dir")
			os.Exit(2)
		}
		ok, err := compare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	wl, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "simbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *recordFlag {
		seeds, err := parseSeeds(*seedList)
		if err == nil {
			err = record(ctx, wl, seeds, "simbench/fingerprints.json")
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "simbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}

	fp, err := loadFingerprints()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	c := &checker{want: fp.lookup(wl.name, *seed)}
	if c.want == nil {
		fmt.Fprintf(os.Stderr, "simbench: no fingerprint for %s seed %d; checking errors, iron law and run-to-run identity only\n", wl.name, *seed)
	}
	budget := time.Duration(*seconds) * time.Second
	var metrics map[string]metric
	if *traceFlag == 1 {
		metrics, err = perLayer(ctx, wl, *seed, budget, c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(1)
		}
	} else {
		metrics = endToEnd(ctx, wl, *seed, budget, c)
	}

	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]hostInfo{"host": currentHost(wl, *seed, *traceFlag, *seconds)}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(result{
		Correct:   c.failed == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   metrics,
	}); err != nil {
		os.Exit(1)
	}
}

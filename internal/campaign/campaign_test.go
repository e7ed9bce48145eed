package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"odbscale/internal/system"
	"odbscale/internal/telemetry"
)

// fakeUtil is the synthetic utilization surface the fake simulator
// exposes: non-decreasing in clients, non-increasing in warehouses at a
// fixed count (more I/O per client), and lower at higher processor
// counts — the regime the tuner assumes.
func fakeUtil(w, p, c int) float64 {
	need := float64(6*p) + float64(w)/10
	return math.Min(1, float64(c)/need)
}

// fakeTuned is the brute-force ground truth: the smallest count in
// [min, max] reaching target, or max when none does.
func fakeTuned(w, p, min, max int, target float64) int {
	for c := min; c <= max; c++ {
		if fakeUtil(w, p, c) >= target {
			return c
		}
	}
	return max
}

// runLog is a fake RunFunc that records every executed configuration.
type runLog struct {
	mu    sync.Mutex
	delay time.Duration
	cfgs  []system.Config
}

func (l *runLog) run(ctx context.Context, cfg system.Config, _ []Attached) (system.Metrics, error) {
	if l.delay > 0 {
		select {
		case <-time.After(l.delay):
		case <-ctx.Done():
			return system.Metrics{}, ctx.Err()
		}
	} else if err := ctx.Err(); err != nil {
		return system.Metrics{}, err
	}
	l.mu.Lock()
	l.cfgs = append(l.cfgs, cfg)
	l.mu.Unlock()
	return system.Metrics{
		Warehouses: cfg.Warehouses,
		Clients:    cfg.Clients,
		Processors: cfg.Processors,
		Txns:       uint64(cfg.MeasureTxns),
		TPS:        float64(cfg.Warehouses),
		CPI:        2.5,
		CPUUtil:    fakeUtil(cfg.Warehouses, cfg.Processors, cfg.Clients),
	}, nil
}

func (l *runLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.cfgs)
}

// split separates the executed runs into measurement points and tuner
// probes by their measurement length.
func (l *runLog) split(measureTxns int) (points map[PointKey]int, probes map[probeKey]int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	points = make(map[PointKey]int)
	probes = make(map[probeKey]int)
	for _, cfg := range l.cfgs {
		if cfg.MeasureTxns == measureTxns {
			points[PointKey{W: cfg.Warehouses, P: cfg.Processors}]++
		} else {
			probes[probeKey{cfg.Warehouses, cfg.Processors, cfg.Clients}]++
		}
	}
	return points, probes
}

// recorder captures every observer event.
type recorder struct {
	mu         sync.Mutex
	started    []Point
	finished   []PointResult
	probes     []Probe
	summaries  []Summary
	onFinished func(successes int)
}

func (r *recorder) PointStarted(p Point) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.started = append(r.started, p)
}

func (r *recorder) PointFinished(p PointResult) {
	r.mu.Lock()
	r.finished = append(r.finished, p)
	n := 0
	for _, f := range r.finished {
		if f.Err == nil && !f.Resumed {
			n++
		}
	}
	cb := r.onFinished
	r.mu.Unlock()
	if cb != nil {
		cb(n)
	}
}

func (r *recorder) TunerProbe(p Probe) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.probes = append(r.probes, p)
}

func (r *recorder) CampaignDone(s Summary) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.summaries = append(r.summaries, s)
}

// successes returns the point keys finished by an executed run.
func (r *recorder) successes() map[PointKey]bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[PointKey]bool)
	for _, f := range r.finished {
		if f.Err == nil && !f.Resumed {
			out[PointKey{W: f.Warehouses, P: f.Processors}] = true
		}
	}
	return out
}

// resumed returns the point keys restored from the checkpoint.
func (r *recorder) resumed() map[PointKey]bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[PointKey]bool)
	for _, f := range r.finished {
		if f.Resumed {
			out[PointKey{W: f.Warehouses, P: f.Processors}] = true
		}
	}
	return out
}

// executedProbes returns the probe keys that actually simulated.
func (r *recorder) executedProbes() map[probeKey]bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[probeKey]bool)
	for _, p := range r.probes {
		if !p.Cached {
			out[probeKey{p.Warehouses, p.Processors, p.Clients}] = true
		}
	}
	return out
}

var (
	testWarehouses = []int{10, 40, 90, 160, 250, 360}
	testProcessors = []int{1, 2}
)

// testSpec returns a fake-simulator campaign: distinct MeasureTxns and
// TuneTxns let runLog.split classify the executed runs.
func testSpec() Spec {
	return Spec{
		Machine:     system.XeonQuad(),
		Tuning:      system.DefaultTuning(),
		Seed:        7,
		WarmupTxns:  10,
		MeasureTxns: 500,
		TuneTxns:    100,
		TargetUtil:  0.9,
		MinClients:  2,
		MaxClients:  64,
		AutoTune:    true,
		Parallelism: 2,
		Warehouses:  append([]int(nil), testWarehouses...),
		Processors:  append([]int(nil), testProcessors...),
	}
}

func TestTuneAgainstBruteForce(t *testing.T) {
	const target = 0.9
	for _, w := range []int{5, 30, 80, 200, 420, 1000} {
		for _, p := range []int{1, 2, 4} {
			for _, b := range []Bounds{
				{Min: 2, Max: 64},
				{Min: 8, Max: 64},
				{Min: 1, Max: 48},
			} {
				b.Target = target
				want := fakeTuned(w, p, b.Min, b.Max, target)
				for _, start := range []int{b.Min, want - 1, want, want + 3, b.Max} {
					if start < b.Min || start > b.Max {
						continue
					}
					bb := b
					bb.Start = start
					asked := make(map[int]bool)
					got, err := Tune(func(c int) (float64, error) {
						if asked[c] {
							t.Fatalf("W=%d P=%d %+v: count %d probed twice", w, p, bb, c)
						}
						asked[c] = true
						return fakeUtil(w, p, c), nil
					}, bb)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("W=%d P=%d %+v: tuned %d, brute force %d", w, p, bb, got, want)
					}
				}
			}
		}
	}
}

func TestTuneIOBoundReturnsMax(t *testing.T) {
	got, err := Tune(func(c int) (float64, error) { return 0.5, nil }, Bounds{Min: 4, Max: 32, Start: 4, Target: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if got != 32 {
		t.Fatalf("I/O-bound search returned %d, want Max=32", got)
	}
}

func TestTunePropagatesProbeError(t *testing.T) {
	boom := errors.New("boom")
	if _, err := Tune(func(int) (float64, error) { return 0, boom }, Bounds{Min: 2, Max: 8, Start: 2, Target: 0.9}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped probe error", err)
	}
}

func TestCampaignCoverageAndAccounting(t *testing.T) {
	spec := testSpec()
	rl := &runLog{}
	rec := &recorder{}
	spec.Observer = rec
	res, err := (&Runner{Spec: spec, RunFunc: rl.run}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	total := len(spec.Warehouses) * len(spec.Processors)
	if len(res.Points) != total {
		t.Fatalf("result has %d points, want %d", len(res.Points), total)
	}
	for _, p := range spec.Processors {
		series := res.Series(p)
		if len(series) != len(spec.Warehouses) {
			t.Fatalf("Series(%d) has %d points", p, len(series))
		}
		for i, m := range series {
			if m.Warehouses != spec.Warehouses[i] {
				t.Fatalf("Series(%d)[%d] = W%d, want axis order", p, i, m.Warehouses)
			}
			want := fakeTuned(m.Warehouses, p, spec.MinClients, spec.MaxClients, spec.TargetUtil)
			if m.Clients != want {
				t.Fatalf("W=%d P=%d tuned to %d clients, brute force %d", m.Warehouses, p, m.Clients, want)
			}
		}
	}

	points, probes := rl.split(spec.MeasureTxns)
	if len(points) != total {
		t.Fatalf("executed %d measurement points, want %d", len(points), total)
	}
	for k, n := range points {
		if n != 1 {
			t.Fatalf("point %+v measured %d times", k, n)
		}
	}
	for k, n := range probes {
		if n != 1 {
			t.Fatalf("probe %+v executed %d times — memo failed", k, n)
		}
	}

	sum := res.Summary
	if sum.Points != total || sum.PointsResumed != 0 {
		t.Fatalf("summary points = %d (%d resumed), want %d (0)", sum.Points, sum.PointsResumed, total)
	}
	if sum.Runs != rl.count() {
		t.Fatalf("summary counts %d runs, fake executed %d", sum.Runs, rl.count())
	}
	if exec := sum.Probes - sum.ProbesCached; exec != len(probes) {
		t.Fatalf("summary counts %d executed probes, fake saw %d", exec, len(probes))
	}
	if len(rec.started) != total || len(rec.finished) != total {
		t.Fatalf("observer saw %d started / %d finished", len(rec.started), len(rec.finished))
	}
	if len(rec.summaries) != 1 || rec.summaries[0].Err != nil {
		t.Fatalf("CampaignDone fired %d times (err=%v)", len(rec.summaries), rec.summaries[0].Err)
	}
}

func TestCampaignFixedAndHeuristicClients(t *testing.T) {
	spec := testSpec()
	spec.Clients = 9
	rl := &runLog{}
	res, err := (&Runner{Spec: spec, RunFunc: rl.run}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, probes := rl.split(spec.MeasureTxns)
	if len(probes) != 0 {
		t.Fatalf("fixed clients ran %d probes", len(probes))
	}
	for k, m := range res.Points {
		if m.Clients != 9 {
			t.Fatalf("point %+v ran with %d clients, want the pinned 9", k, m.Clients)
		}
	}

	spec = testSpec()
	spec.AutoTune = false
	rl = &runLog{}
	res, err = (&Runner{Spec: spec, RunFunc: rl.run}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, probes = rl.split(spec.MeasureTxns); len(probes) != 0 {
		t.Fatalf("heuristic mode ran %d probes", len(probes))
	}
	for k, m := range res.Points {
		if want := system.HeuristicClients(k.W, k.P); m.Clients != want {
			t.Fatalf("point %+v ran with %d clients, heuristic says %d", k, m.Clients, want)
		}
	}
}

func TestWarmStartSavesProbesSameResults(t *testing.T) {
	warm := testSpec()
	rlWarm := &runLog{}
	resWarm, err := (&Runner{Spec: warm, RunFunc: rlWarm.run}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	coldPoints, coldRuns := runCold(t, testSpec(), func(s Spec) (*Result, error) {
		return (&Runner{Spec: s, RunFunc: (&runLog{}).run}).Run(context.Background())
	})
	// Identical tuned counts: the warm start changes the search path, not
	// the minimal satisfying count it converges to.
	for k, m := range coldPoints {
		if resWarm.Points[k].Clients != m.Clients {
			t.Fatalf("point %+v: warm tuned %d, cold tuned %d", k, resWarm.Points[k].Clients, m.Clients)
		}
	}
	if w := resWarm.Summary.Runs; w >= coldRuns {
		t.Fatalf("warm start executed %d runs, cold %d — expected strictly fewer", w, coldRuns)
	}
}

// runCold runs spec as one single-warehouse campaign per warehouse
// count, through run, and returns every point and the simulator runs
// executed. A campaign with one warehouse starts every tuner search at
// MinClients with no floor: the search without the warm start.
func runCold(t *testing.T, spec Spec, run func(Spec) (*Result, error)) (map[PointKey]system.Metrics, int) {
	t.Helper()
	points, runs := map[PointKey]system.Metrics{}, 0
	for _, w := range spec.Warehouses {
		one := spec
		one.Warehouses = []int{w}
		res, err := run(one)
		if err != nil {
			t.Fatal(err)
		}
		maps.Copy(points, res.Points)
		runs += res.Summary.Runs
	}
	return points, runs
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	cp := &Checkpoint{
		Version: checkpointVersion,
		Spec:    Fingerprint{Machine: "xeon", Seed: 3, WarmupTxns: 10, MeasureTxns: 500, TuneTxns: 100, TargetUtil: 0.9, MinClients: 2, MaxClients: 64, AutoTune: true},
		Points: []CheckpointPoint{
			{W: 10, P: 1, C: 7, Metrics: system.Metrics{Warehouses: 10, Processors: 1, Clients: 7, Txns: 500, TPS: 123.5, CPI: 2.25, MPI: 0.004, CPUUtil: 0.93}},
			{W: 40, P: 2, C: 15, Metrics: system.Metrics{Warehouses: 40, Processors: 2, Clients: 15, Txns: 500, TPS: 210, CPI: 2.5, MPI: 0.006, CPUUtil: 0.91}},
		},
		Probes: []CheckpointProbe{{W: 10, P: 1, C: 2, Util: 0.3}, {W: 10, P: 1, C: 7, Util: 0.93}},
	}
	if err := cp.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("round trip diverged:\nwrote %+v\nread  %+v", cp, got)
	}

	if _, err := LoadCheckpoint(filepath.Join(dir, "missing.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v", err)
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	if err := os.WriteFile(path, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted: %v", err)
	}
}

func TestCancelCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	total := len(testWarehouses) * len(testProcessors)

	// Phase 1: cancel the campaign after three successful points.
	spec := testSpec()
	spec.CheckpointPath = path
	rl1 := &runLog{delay: 2 * time.Millisecond}
	rec1 := &recorder{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec1.onFinished = func(successes int) {
		if successes == 3 {
			cancel()
		}
	}
	spec.Observer = rec1
	if _, err := (&Runner{Spec: spec, RunFunc: rl1.run}).Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
	if len(rec1.summaries) != 1 || !errors.Is(rec1.summaries[0].Err, context.Canceled) {
		t.Fatal("CampaignDone must fire once with the failure")
	}

	// The checkpoint must hold exactly the successfully finished points.
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("checkpoint unreadable after cancellation: %v", err)
	}
	if cp.Spec != spec.fingerprint() {
		t.Fatalf("checkpoint fingerprint %+v does not match spec %+v", cp.Spec, spec.fingerprint())
	}
	done := rec1.successes()
	if len(cp.Points) != len(done) {
		t.Fatalf("checkpoint holds %d points, observer saw %d successes", len(cp.Points), len(done))
	}
	for _, pt := range cp.Points {
		if !done[PointKey{W: pt.W, P: pt.P}] {
			t.Fatalf("checkpoint point %+v never finished", pt)
		}
	}
	if len(done) < 3 || len(done) >= total {
		t.Fatalf("phase 1 finished %d of %d points — cancellation did not interrupt", len(done), total)
	}

	// Phase 2: resume. Completed points must come back from the
	// checkpoint, only the complement may execute, and no probe recorded
	// in phase 1 may simulate again.
	spec2 := testSpec()
	spec2.CheckpointPath = path
	spec2.Resume = true
	rl2 := &runLog{}
	rec2 := &recorder{}
	spec2.Observer = rec2
	res, err := (&Runner{Spec: spec2, RunFunc: rl2.run}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != total {
		t.Fatalf("resumed campaign has %d points, want %d", len(res.Points), total)
	}
	if got := rec2.resumed(); !reflect.DeepEqual(got, done) {
		t.Fatalf("resumed %v, checkpoint held %v", got, done)
	}
	points2, _ := rl2.split(spec2.MeasureTxns)
	if len(points2) != total-len(done) {
		t.Fatalf("resume executed %d points, want the %d incomplete ones", len(points2), total-len(done))
	}
	for k := range points2 {
		if done[k] {
			t.Fatalf("resume re-executed completed point %+v", k)
		}
	}
	p1, p2 := rec1.executedProbes(), rec2.executedProbes()
	for k := range p2 {
		if p1[k] {
			t.Fatalf("probe %+v simulated in both phases despite the checkpoint memo", k)
		}
	}
	if res.Summary.PointsResumed != len(done) {
		t.Fatalf("summary resumed %d, want %d", res.Summary.PointsResumed, len(done))
	}
	for k, m := range res.Points {
		want := fakeTuned(k.W, k.P, spec.MinClients, spec.MaxClients, spec.TargetUtil)
		if m.Clients != want {
			t.Fatalf("point %+v finished with %d clients, brute force %d", k, m.Clients, want)
		}
	}
}

func TestResumeFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	spec := testSpec()
	spec.CheckpointPath = path
	rl := &runLog{}
	if _, err := (&Runner{Spec: spec, RunFunc: rl.run}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	spec2 := testSpec()
	spec2.CheckpointPath = path
	spec2.Resume = true
	spec2.Seed = spec.Seed + 1
	if _, err := (&Runner{Spec: spec2, RunFunc: rl.run}).Run(context.Background()); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
	}
}

func TestSpecValidation(t *testing.T) {
	spec := testSpec()
	spec.Warehouses = nil
	if _, err := Run(context.Background(), spec); err == nil {
		t.Fatal("empty axes accepted")
	}
	spec = testSpec()
	spec.MeasureTxns = 0
	if _, err := Run(context.Background(), spec); !errors.Is(err, system.ErrNoTxns) {
		t.Fatalf("err = %v, want ErrNoTxns", err)
	}
	spec = testSpec()
	spec.MaxClients = spec.MinClients - 1
	if _, err := Run(context.Background(), spec); err == nil {
		t.Fatal("inverted client range accepted")
	}
	spec = testSpec()
	spec.Clients = -5
	if _, err := Run(context.Background(), spec); err == nil || !strings.Contains(err.Error(), "Clients") {
		t.Fatalf("err = %v, want a rejection naming Clients", err)
	}
	spec = testSpec()
	spec.Resume = true // no CheckpointPath
	if _, err := Run(context.Background(), spec); err == nil {
		t.Fatal("Resume without CheckpointPath accepted")
	}
	// A run configuration system.Run would reject fails before the
	// campaign writes its manifest or checkpoint.
	spec = testSpec()
	spec.Engine = "nope"
	spec.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	if _, err := Run(context.Background(), spec); !errors.Is(err, system.ErrBadEngine) {
		t.Fatalf("err = %v, want ErrBadEngine", err)
	}
	for _, path := range []string{spec.CheckpointPath, telemetry.ManifestPath(spec.CheckpointPath)} {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s written for a rejected spec (stat err = %v)", path, err)
		}
	}
}

// TestManifestRecordsEngine checks that the manifest written next to a
// checkpoint names the campaign's storage engine, at the top level and
// in its config, and that an empty Spec.Engine is recorded as the
// default B-tree.
func TestManifestRecordsEngine(t *testing.T) {
	for engine, want := range map[string]string{"lsm": "lsm", "": "btree"} {
		spec := testSpec()
		spec.Engine = engine
		spec.Warehouses, spec.Processors = []int{10}, []int{1}
		spec.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
		if _, err := (&Runner{Spec: spec, RunFunc: (&runLog{}).run}).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(telemetry.ManifestPath(spec.CheckpointPath))
		if err != nil {
			t.Fatal(err)
		}
		var man struct {
			Engine string `json:"engine"`
			Config struct {
				Engine string `json:"engine"`
			} `json:"config"`
		}
		if err := json.Unmarshal(data, &man); err != nil {
			t.Fatal(err)
		}
		if man.Engine != want || man.Config.Engine != want {
			t.Errorf("Engine %q: manifest engine %q, config engine %q; want %q", engine, man.Engine, man.Config.Engine, want)
		}
	}
}

func TestObserversFanOut(t *testing.T) {
	spec := testSpec()
	spec.Warehouses = []int{10, 40}
	spec.Processors = []int{1}
	a, b := &recorder{}, &recorder{}
	spec.Observer = Observers(nil, a, nil, b)
	rl := &runLog{}
	if _, err := (&Runner{Spec: spec, RunFunc: rl.run}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(a.finished) != 2 || len(b.finished) != 2 {
		t.Fatalf("fanout delivered %d/%d finishes, want 2/2", len(a.finished), len(b.finished))
	}
	if len(a.summaries) != 1 || len(b.summaries) != 1 {
		t.Fatal("fanout lost CampaignDone")
	}
}

func TestProgressAndEventLogOutput(t *testing.T) {
	spec := testSpec()
	spec.Warehouses = []int{10, 40}
	spec.Processors = []int{1}
	var progressBuf, logBuf bytes.Buffer
	spec.Observer = Observers(
		NewProgress(&progressBuf, len(spec.Warehouses)),
		NewEventLog(&logBuf),
	)
	rl := &runLog{}
	res, err := (&Runner{Spec: spec, RunFunc: rl.run}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out := progressBuf.String(); !strings.Contains(out, "done in") || !strings.Contains(out, "2/2 points") {
		t.Fatalf("progress output missing summary:\n%s", out)
	}

	events := make(map[string]int)
	dec := json.NewDecoder(&logBuf)
	var lastSummary *Summary
	for dec.More() {
		var rec struct {
			Event   string          `json:"event"`
			Metrics *system.Metrics `json:"metrics"`
			Summary *Summary        `json:"summary"`
		}
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("event log is not JSON lines: %v", err)
		}
		events[rec.Event]++
		if rec.Event == "point_finished" && rec.Metrics == nil {
			t.Fatal("point_finished record lacks metrics")
		}
		if rec.Summary != nil {
			lastSummary = rec.Summary
		}
	}
	if events["point_started"] != 2 || events["point_finished"] != 2 || events["campaign_done"] != 1 {
		t.Fatalf("event counts: %v", events)
	}
	if events["tuner_probe"] == 0 {
		t.Fatal("no tuner_probe events for an auto-tuned campaign")
	}
	if lastSummary == nil || lastSummary.Runs != res.Summary.Runs {
		t.Fatalf("campaign_done summary = %+v, want runs %d", lastSummary, res.Summary.Runs)
	}
}

// TestCampaignDeterministic guards the parallel scheduler: two runs of
// the same spec must produce identical metrics for every point.
func TestCampaignDeterministic(t *testing.T) {
	run := func() *Result {
		rl := &runLog{delay: time.Millisecond}
		spec := testSpec()
		res, err := (&Runner{Spec: spec, RunFunc: rl.run}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Points, b.Points) {
		t.Fatal("same spec produced different campaign results")
	}
}

func init() {
	// Guard against the fake losing the properties the tests rely on.
	for p := 1; p <= 4; p++ {
		prev := -1.0
		for c := 1; c <= 64; c++ {
			u := fakeUtil(100, p, c)
			if u < prev {
				panic(fmt.Sprintf("fakeUtil not monotone in clients at p=%d c=%d", p, c))
			}
			prev = u
		}
	}
}

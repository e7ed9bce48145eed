package system

import (
	"context"
	"reflect"
	"testing"

	"odbscale/internal/qstats"
	"odbscale/internal/telemetry"
)

// TestRunQueueStatsDoesNotPerturb is the observatory's core guarantee,
// pinned across the W × P grid the issue names: a run with
// WithQueueStats attached produces bit-identical Metrics to a plain
// run.
func TestRunQueueStatsDoesNotPerturb(t *testing.T) {
	for _, w := range []int{10, 200} {
		for _, p := range []int{1, 4} {
			cfg := spanCfg(w, p)
			plain, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			col := qstats.NewCollector()
			observed, err := Run(context.Background(), cfg, WithQueueStats(col))
			if err != nil {
				t.Fatal(err)
			}
			if plain != observed {
				t.Errorf("W=%d P=%d: queue stats perturbed the simulation:\nplain    %+v\nobserved %+v",
					w, p, plain, observed)
			}
			if col.Report() == nil {
				t.Fatalf("W=%d P=%d: no report published", w, p)
			}
		}
	}
}

// TestRunQueueStatsLawResiduals audits the operational laws on a real
// contended multiprocessor run: every station's Little's-law and
// utilization-law residuals must stay below 1e-6 of the measured value,
// and the accumulator invariants (completions ≤ arrivals, U ≤ 1) must
// hold.
func TestRunQueueStatsLawResiduals(t *testing.T) {
	col := qstats.NewCollector()
	if _, err := Run(context.Background(), spanCfg(200, 4), WithQueueStats(col)); err != nil {
		t.Fatal(err)
	}
	r := col.Report()
	if r == nil {
		t.Fatal("no report published")
	}
	if viol := r.Check(1e-6); len(viol) != 0 {
		t.Fatalf("operational-law violations: %v", viol)
	}
	for i := range r.Stations {
		s := &r.Stations[i]
		if s.LittleResidual >= 1e-6 || s.UtilResidual >= 1e-6 {
			t.Errorf("%s: residuals little=%g util=%g, want < 1e-6", s.Name, s.LittleResidual, s.UtilResidual)
		}
	}
	// The run must actually exercise the sensors: CPU episodes and disk
	// visits both complete, and the driver's service demand is nonzero.
	byName := map[string]qstats.Counts{}
	for id := 0; id < qstats.NumStations; id++ {
		byName[qstats.StationName(id)] = col.Counts()[id]
	}
	if byName["cpu"].Completions == 0 || byName["disk"].Completions == 0 {
		t.Errorf("idle sensors: cpu=%d disk=%d completions", byName["cpu"].Completions, byName["disk"].Completions)
	}
	if len(r.Ranking) == 0 {
		t.Error("empty ranking")
	}
	if r.Meta.Warehouses != 200 || r.Meta.Processors != 4 || r.Meta.Engine == "" {
		t.Errorf("report meta = %+v", r.Meta)
	}
}

// TestRunQueueStatsDeterministic re-runs the same seed and checks the
// derived report is bit-identical.
func TestRunQueueStatsDeterministic(t *testing.T) {
	run := func() *qstats.Report {
		col := qstats.NewCollector()
		if _, err := Run(context.Background(), spanCfg(10, 2), WithQueueStats(col)); err != nil {
			t.Fatal(err)
		}
		return col.Report()
	}
	a, b := run(), run()
	if a == nil || b == nil {
		t.Fatal("missing report")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reports differ across reruns:\n%+v\n%+v", a, b)
	}
}

// TestRunQueueStatsTimelineStations checks the timeline carries one
// per-interval sample row per station when the observatory rides
// along, with sane bounded values.
func TestRunQueueStatsTimelineStations(t *testing.T) {
	cfg := spanCfg(10, 2)
	tl := telemetry.NewTimeline(20)
	col := qstats.NewCollector()
	if _, err := Run(context.Background(), cfg, WithTimeline(tl), WithQueueStats(col)); err != nil {
		t.Fatal(err)
	}
	samples := tl.Dump().Samples
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	for i, s := range samples {
		if len(s.Stations) != qstats.NumStations {
			t.Fatalf("sample %d has %d stations, want %d", i, len(s.Stations), qstats.NumStations)
		}
		for _, st := range s.Stations {
			if st.Util < 0 || st.Util > 1 {
				t.Fatalf("sample %d station %s util %f outside [0,1]", i, st.Name, st.Util)
			}
			if st.QueueLen < 0 || st.WaitMS < 0 || st.Xps < 0 {
				t.Fatalf("sample %d station %s has negative rates: %+v", i, st.Name, st)
			}
		}
	}
	// Without the observatory the samples carry no station rows.
	tl2 := telemetry.NewTimeline(20)
	if _, err := Run(context.Background(), cfg, WithTimeline(tl2)); err != nil {
		t.Fatal(err)
	}
	for _, s := range tl2.Dump().Samples {
		if len(s.Stations) != 0 {
			t.Fatal("plain run samples carry station rows")
		}
	}
}

// TestAmpGaugesResetSafe pins the interval amplification gauges across
// the warm-up measurement reset: the reset zeroes the cumulative
// write/read ledgers mid-run, and the snapshot differencing must
// restart the deltas from zero instead of wrapping, so every retained
// sample's amps stay non-negative for both engines.
func TestAmpGaugesResetSafe(t *testing.T) {
	for _, engine := range []string{"", "lsm"} {
		cfg := spanCfg(10, 1)
		cfg.Engine = engine
		// A long warm-up relative to the 5ms interval guarantees samples
		// straddle the reset.
		cfg.WarmupTxns = 300
		cfg.MeasureTxns = 300
		tl := telemetry.NewTimeline(5)
		if _, err := Run(context.Background(), cfg, WithTimeline(tl)); err != nil {
			t.Fatal(err)
		}
		samples := tl.Dump().Samples
		if len(samples) < 4 {
			t.Fatalf("engine %q: only %d samples", engine, len(samples))
		}
		sawWarmup, sawMeasure := false, false
		for i, s := range samples {
			if s.WriteAmp < 0 || s.ReadAmp < 0 || s.SpaceAmp < 0 {
				t.Fatalf("engine %q sample %d: negative amp after reset: write=%g read=%g space=%g",
					engine, i, s.WriteAmp, s.ReadAmp, s.SpaceAmp)
			}
			sawWarmup = sawWarmup || !s.Measuring
			sawMeasure = sawMeasure || s.Measuring
		}
		if !sawWarmup || !sawMeasure {
			t.Fatalf("engine %q: samples did not straddle the reset (warmup=%v measure=%v)",
				engine, sawWarmup, sawMeasure)
		}
	}
}

// TestFlightDeltaResetSafe pins the differencing primitives directly: a
// counter that restarted mid-interval yields its post-reset value, never
// a wrapped huge delta or a negative one.
func TestFlightDeltaResetSafe(t *testing.T) {
	if got := deltaU64(5, 1000); got != 5 {
		t.Errorf("deltaU64(5, 1000) = %d, want 5 (restart, not wrap)", got)
	}
	if got := deltaU64(1000, 5); got != 995 {
		t.Errorf("deltaU64(1000, 5) = %d, want 995", got)
	}
	if got := deltaF64(2.5, 100); got != 2.5 {
		t.Errorf("deltaF64(2.5, 100) = %g, want 2.5", got)
	}
	if got := deltaF64(100, 2.5); got != 97.5 {
		t.Errorf("deltaF64(100, 2.5) = %g, want 97.5", got)
	}
}

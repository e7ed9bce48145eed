package system

import (
	"context"
	"errors"
	"math"
	"testing"

	"odbscale/internal/profile"
	"odbscale/internal/telemetry"
)

// lsmCfg is a small configuration on the LSM engine with a memtable
// sized so a short run still flushes and compacts (the default 8 MB
// memtable would absorb a 400-txn run without ever sealing).
func lsmCfg(w, p int) Config {
	cfg := determinismConfig(w, p)
	cfg.Engine = "lsm"
	cfg.Tuning.LSM.MemtableMB = 1
	return cfg
}

// TestLSMRunBitIdentical pins seed-stability of the LSM engine's
// read-path draws, memtable accounting and background compaction
// scheduling: two runs of the same configuration must agree on every
// metric bit.
func TestLSMRunBitIdentical(t *testing.T) {
	points := []struct{ w, p int }{{10, 1}, {10, 4}}
	if !testing.Short() {
		points = append(points, struct{ w, p int }{200, 4})
	}
	for _, pt := range points {
		cfg := lsmCfg(pt.w, pt.p)
		a, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("W=%d P=%d: runs differ:\n%+v\n%+v", pt.w, pt.p, a, b)
		}
	}
}

// TestLSMRunReportsAmplification checks the run-level engine
// characterization: the LSM run must identify itself, amplify writes
// beyond the logical volume once compaction reorganizes flushed runs,
// take more than one block read per logical row read (bloom false
// positives and level probes), and carry redundant run data on disk.
func TestLSMRunReportsAmplification(t *testing.T) {
	cfg := lsmCfg(10, 1)
	m, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Engine != "lsm" {
		t.Fatalf("engine = %q, want lsm", m.Engine)
	}
	if m.WriteAmp <= 1 {
		t.Errorf("write amplification %.3f, want > 1", m.WriteAmp)
	}
	if m.ReadAmp <= 0 {
		t.Errorf("read amplification %.3f, want > 0", m.ReadAmp)
	}
	if m.SpaceAmp < 1 {
		t.Errorf("space amplification %.3f, want >= 1", m.SpaceAmp)
	}

	// The B-tree engine reports in-place semantics: no write or space
	// amplification beyond the checkpoint traffic, one block read per
	// logical read is not guaranteed (index descents), but identity and
	// space amp are exact.
	bt, err := Run(context.Background(), determinismConfig(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if bt.Engine != "btree" {
		t.Fatalf("default engine = %q, want btree", bt.Engine)
	}
	if bt.SpaceAmp < 1 {
		t.Errorf("btree space amp %.3f, want >= 1 (heap includes index blocks)", bt.SpaceAmp)
	}
	if bt.WriteStallsPerTxn != 0 {
		t.Errorf("btree reported %.3f write stalls per txn, want 0", bt.WriteStallsPerTxn)
	}
}

// TestLSMWriteStallsUnderPressure squeezes the L0 stall threshold and
// background bandwidth until the engine throttles foreground writers,
// and checks the stalls surface in the metrics.
func TestLSMWriteStallsUnderPressure(t *testing.T) {
	cfg := lsmCfg(10, 1)
	cfg.Tuning.LSM.L0StallRuns = 1
	cfg.Tuning.LSM.CompactBatch = 2
	cfg.Tuning.DBWriterIntervalMS = 200 // starve maintenance
	m, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.WriteStallsPerTxn <= 0 {
		t.Fatalf("no write stalls under L0 pressure: %+v", m)
	}
}

// TestLSMProfiledExactSum is the profiler acceptance for the new engine
// phases: with memtable and compaction work in the mix, the per-phase
// CPI breakdown must still sum to the whole-run CPI within 1e-9, and
// profiling must not perturb the run.
func TestLSMProfiledExactSum(t *testing.T) {
	cfg := lsmCfg(10, 1)
	plain, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := profile.NewCollector()
	m, err := Run(context.Background(), cfg, WithProfiler(col))
	if err != nil {
		t.Fatal(err)
	}
	if plain != m {
		t.Errorf("profiler perturbed the LSM run:\nplain    %+v\nprofiled %+v", plain, m)
	}
	p := col.Profile()
	var sum float64
	seen := map[string]bool{}
	for _, r := range p.PhaseBreakdown() {
		sum += r.CPI
		if r.Cycles > 0 {
			seen[r.Phase] = true
		}
	}
	if rel := math.Abs(sum-m.CPI) / m.CPI; rel > 1e-9 {
		t.Errorf("phase CPI sum %.12f vs whole-run CPI %.12f (rel %.3g)", sum, m.CPI, rel)
	}
	for _, want := range []string{"memtable", "compact", "buffer", "logcommit", "sched"} {
		if !seen[want] {
			t.Errorf("phase %q missing from LSM breakdown", want)
		}
	}
	if seen["btree"] {
		t.Error("LSM run attributed cycles to the btree phase")
	}
}

// TestLSMFlightSamplesCarryAmplification checks the timeline exposes the engine's amplification: an LSM run's samples
// must show interval write-amp once compaction traffic flows and a
// space-amp at or above one throughout.
func TestLSMFlightSamplesCarryAmplification(t *testing.T) {
	cfg := lsmCfg(10, 1)
	tl := telemetry.NewTimeline(20)
	if _, err := Run(context.Background(), cfg, WithTimeline(tl)); err != nil {
		t.Fatal(err)
	}
	samples := tl.Dump().Samples
	if len(samples) == 0 {
		t.Fatal("no timeline samples")
	}
	var sawWriteAmp, sawReadAmp bool
	for _, s := range samples {
		if s.SpaceAmp < 1 {
			t.Fatalf("sample space amp %.3f < 1: %+v", s.SpaceAmp, s)
		}
		if s.WriteAmp > 1 {
			sawWriteAmp = true
		}
		if s.Measuring && s.ReadAmp > 0 {
			sawReadAmp = true
		}
	}
	if !sawWriteAmp {
		t.Error("no sample showed interval write amplification > 1")
	}
	if !sawReadAmp {
		t.Error("no measuring sample showed read amplification")
	}
}

// TestBadEngineRejected checks engine-name validation fails fast with
// the sentinel error rather than deep in construction.
func TestBadEngineRejected(t *testing.T) {
	cfg := determinismConfig(10, 1)
	cfg.Engine = "isam"
	if _, err := Run(context.Background(), cfg); !errors.Is(err, ErrBadEngine) {
		t.Fatalf("err = %v, want ErrBadEngine", err)
	}
}

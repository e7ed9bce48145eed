package system

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// fastConfig returns a configuration small enough for unit tests.
func fastConfig(w, c, p int) Config {
	cfg := DefaultConfig(w, c, p)
	cfg.WarmupTxns = 200
	cfg.MeasureTxns = 600
	return cfg
}

func run(t *testing.T, cfg Config) Metrics {
	t.Helper()
	m, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Txns == 0 {
		t.Fatal("no transactions measured")
	}
	return m
}

func TestBadConfigRejected(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero config: err = %v, want ErrBadConfig", err)
	}
	cfg := fastConfig(10, 8, 4)
	cfg.MeasureTxns = 0
	if _, err := Run(context.Background(), cfg); !errors.Is(err, ErrNoTxns) {
		t.Fatalf("zero MeasureTxns: err = %v, want ErrNoTxns", err)
	}
	if errors.Is(ErrBadConfig, ErrNoTxns) {
		t.Fatal("sentinels must be distinct")
	}
}

// TestDegenerateConfigsRejected runs configs that used to panic
// (buffer cache, disks, disk times, cache geometry, scale, quantum, other
// CPI, busy wait, footprints, stall costs), run until the context
// deadline or out of memory (clock, warm-up, chunk, DB-writer interval,
// reference rates and mixture, LSM memtable and fanout), finish with no
// transactions (stall and bus costs, bandwidth scale) or ran without
// physical meaning (store fractions) through Run with a background
// context: each must return ErrBadConfig naming the field, promptly.
func TestDegenerateConfigsRejected(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"Machine.BufferCacheMB", func(c *Config) { c.Machine.BufferCacheMB = 0 }},
		{"Machine.Disks.DataDisks", func(c *Config) { c.Machine.Disks.DataDisks = 0 }},
		{"Machine.Disks.LogDisks", func(c *Config) { c.Machine.Disks.LogDisks = 0 }},
		{"Machine.Geometry.LineSize", func(c *Config) { c.Machine.Geometry.LineSize = 0 }},
		{"Machine.Geometry.LineSize", func(c *Config) { c.Machine.Geometry.LineSize = -64 }},
		{"Machine.Geometry.TCWays", func(c *Config) { c.Machine.Geometry.TCWays = 0 }},
		{"Machine.Geometry.L2Ways", func(c *Config) { c.Machine.Geometry.L2Ways = 0 }},
		{"Machine.Geometry.L3Ways", func(c *Config) { c.Machine.Geometry.L3Ways = 0 }},
		{"Machine.Geometry.L3Ways", func(c *Config) { c.Machine.Geometry.L3Ways = -1 }},
		{"Tuning.Scale", func(c *Config) { c.Tuning.Scale = 0 }},
		{"Machine.FreqHz", func(c *Config) { c.Machine.FreqHz = 0 }},
		{"WarmupTxns", func(c *Config) { c.WarmupTxns = -1 }},
		{"Tuning.QuantumInstr", func(c *Config) { c.Tuning.QuantumInstr = 0 }},
		{"Tuning.ChunkInstr", func(c *Config) { c.Tuning.ChunkInstr = 0 }},
		{"Tuning.DBWriterIntervalMS", func(c *Config) { c.Tuning.DBWriterIntervalMS = 0 }},
		{"Machine.Disks.AccessMS", func(c *Config) { c.Machine.Disks.AccessMS = -1 }},
		{"Machine.Disks.WriteMS", func(c *Config) { c.Machine.Disks.WriteMS = -1 }},
		{"Machine.Disks.LogMS", func(c *Config) { c.Machine.Disks.LogMS = -1 }},
		{"Machine.Disks.TransferMS", func(c *Config) { c.Machine.Disks.TransferMS = math.NaN() }},
		{"Machine.Disks.Jitter", func(c *Config) { c.Machine.Disks.Jitter = 5 }},
		{"Tuning.OtherCPI", func(c *Config) { c.Tuning.OtherCPI = -1 }},
		{"Tuning.BusyWaitMS", func(c *Config) { c.Tuning.BusyWaitMS = -1 }},
		{"Tuning.HotBytesPerWhs", func(c *Config) { c.Tuning.HotBytesPerWhs = -1 }},
		{"Tuning.Synth.UserCodeBytes", func(c *Config) { c.Tuning.Synth.UserCodeBytes = -1 }},
		{"Tuning.Synth.OSCodeBytes", func(c *Config) { c.Tuning.Synth.OSCodeBytes = -1 }},
		{"Tuning.Synth.MetaBytes", func(c *Config) { c.Tuning.Synth.MetaBytes = -1 }},
		{"Tuning.Synth.KernelBytes", func(c *Config) { c.Tuning.Synth.KernelBytes = -1 }},
		{"Tuning.Synth.PGABytes", func(c *Config) { c.Tuning.Synth.PGABytes = -1 }},
		{"Tuning.Synth.DataRefsPerInstr", func(c *Config) { c.Tuning.Synth.DataRefsPerInstr = -1 }},
		{"Tuning.Synth.FetchLinesPerInstr", func(c *Config) { c.Tuning.Synth.FetchLinesPerInstr = math.NaN() }},
		{"Tuning.Synth.BranchesPerInstr", func(c *Config) { c.Tuning.Synth.BranchesPerInstr = 1e6 }},
		{"Tuning.Synth.PBlock", func(c *Config) { c.Tuning.Synth.PBlock = -1 }},
		{"Tuning.Synth.TailFrac", func(c *Config) { c.Tuning.Synth.TailFrac = -1 }},
		{"Tuning.Synth.PMeta", func(c *Config) { c.Tuning.Synth.PMeta = math.NaN() }},
		{"Machine.FreqHz", func(c *Config) { c.Machine.FreqHz = 1 }}, // DB-writer tick rounds to zero cycles
		{"Tuning.LSM.MemtableMB", func(c *Config) { c.Engine = "lsm"; c.Tuning.LSM.MemtableMB = 0 }},
		{"Tuning.LSM.Fanout", func(c *Config) { c.Engine = "lsm"; c.Tuning.LSM.Fanout = 0 }},
		{"Tuning.LSM.Fanout", func(c *Config) { c.Engine = "lsm"; c.Tuning.LSM.Fanout = 1 }},
		{"Machine.Stall.InstBase", func(c *Config) { c.Machine.Stall.InstBase = -1 }},
		{"Machine.Stall.BranchMispred", func(c *Config) { c.Machine.Stall.BranchMispred = -50 }},
		{"Machine.Stall.TLBMiss", func(c *Config) { c.Machine.Stall.TLBMiss = math.NaN() }},
		{"Machine.Stall.TCMiss", func(c *Config) { c.Machine.Stall.TCMiss = math.Inf(1) }},
		{"Machine.Stall.L2Miss", func(c *Config) { c.Machine.Stall.L2Miss = -1 }},
		{"Machine.Stall.L3Miss", func(c *Config) { c.Machine.Stall.L3Miss = -1000 }},
		{"Machine.Stall.L3Miss", func(c *Config) { c.Machine.Stall.L3Miss = c.Machine.Stall.BusTime1P - 1 }},
		{"Machine.Stall.BusTime1P", func(c *Config) { c.Machine.Stall.BusTime1P = math.NaN() }},
		{"Machine.Bus.OccupancyCycles", func(c *Config) { c.Machine.Bus.OccupancyCycles = math.NaN() }},
		{"Machine.Bus.BaseLatency", func(c *Config) { c.Machine.Bus.BaseLatency = -500 }},
		{"Machine.Bus.QueueFactor", func(c *Config) { c.Machine.Bus.QueueFactor = math.Inf(1) }},
		{"Machine.Bus.BandwidthScale", func(c *Config) { c.Machine.Bus.BandwidthScale = math.NaN() }},
		{"Machine.Bus.BandwidthScale", func(c *Config) { c.Machine.Bus.BandwidthScale = 0 }},
		{"Tuning.Synth.StructStoreFrac", func(c *Config) { c.Tuning.Synth.StructStoreFrac = 5 }},
		{"Tuning.Synth.BlockStoreFrac", func(c *Config) { c.Tuning.Synth.BlockStoreFrac = math.NaN() }},
		{"Tuning.Synth.MetaStoreFrac", func(c *Config) { c.Tuning.Synth.MetaStoreFrac = -1 }},
		{"Tuning.Synth.PGAStoreFrac", func(c *Config) { c.Tuning.Synth.PGAStoreFrac = 1.5 }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			cfg := fastConfig(10, 8, 1)
			tc.set(&cfg)
			start := time.Now()
			_, err := Run(context.Background(), cfg)
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("err = %v, want it to name %s", err, tc.field)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("Run took %v to reject the config", d)
			}
		})
	}
}

func TestRunContextCancellation(t *testing.T) {
	cfg := fastConfig(200, 30, 4)
	cfg.MeasureTxns = 200000 // minutes of simulation if cancellation failed

	// A context that is already dead returns before the machine is even
	// built.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := Run(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pre-cancelled run took %v, want immediate return", elapsed)
	}

	// A deadline that expires during the run stops the drive loop at its
	// next poll — well before the 200k-transaction measurement would end
	// (the generous bound covers setup under the race detector).
	dctx, dcancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer dcancel()
	start = time.Now()
	_, err = Run(dctx, cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Fatalf("mid-run cancellation took %v", elapsed)
	}

	// A live context that is never cancelled does not perturb the run.
	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	a, err := Run(lctx, fastConfig(25, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	b := run(t, fastConfig(25, 10, 2))
	if a.TPS != b.TPS || a.CPI != b.CPI {
		t.Fatalf("cancellable context diverged from a plain Run: %v vs %v", a, b)
	}
}

func TestIronLawIdentity(t *testing.T) {
	// The measured quantities must satisfy TPS = util*P*F/(IPX*CPI)
	// exactly — instructions, cycles, time and transaction counts are all
	// drawn from the same bookkeeping.
	for _, p := range []int{1, 4} {
		m := run(t, fastConfig(40, 12, p))
		predicted := m.CPUUtil * float64(p) * 1.6e9 / (m.IPX * m.CPI)
		if rel := math.Abs(predicted-m.TPS) / m.TPS; rel > 0.02 {
			t.Fatalf("P=%d iron law off by %.2f%%: predicted %.1f measured %.1f",
				p, rel*100, predicted, m.TPS)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, fastConfig(25, 10, 2))
	b := run(t, fastConfig(25, 10, 2))
	if a.TPS != b.TPS || a.CPI != b.CPI || a.MPI != b.MPI || a.CtxSwitchPerTxn != b.CtxSwitchPerTxn {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	c := fastConfig(25, 10, 2)
	c.Seed = 99
	other := run(t, c)
	if other.TPS == a.TPS && other.CPI == a.CPI {
		t.Fatal("different seeds produced identical results")
	}
}

func TestUserIPXFlatOSIPXGrows(t *testing.T) {
	small := run(t, fastConfig(10, 8, 4))
	large := run(t, fastConfig(360, 48, 4))
	if r := large.UserIPX / small.UserIPX; r < 0.93 || r > 1.07 {
		t.Fatalf("user IPX not flat: %v -> %v", small.UserIPX, large.UserIPX)
	}
	if large.OSIPX <= small.OSIPX {
		t.Fatalf("OS IPX did not grow: %v -> %v", small.OSIPX, large.OSIPX)
	}
	if large.IPX <= small.IPX {
		t.Fatal("total IPX did not grow")
	}
}

func TestMPIAndCPIGrowWithWarehouses(t *testing.T) {
	small := run(t, fastConfig(10, 8, 4))
	large := run(t, fastConfig(360, 48, 4))
	if large.MPI <= small.MPI*1.5 {
		t.Fatalf("MPI growth too weak: %v -> %v", small.MPI, large.MPI)
	}
	if large.CPI <= small.CPI*1.2 {
		t.Fatalf("CPI growth too weak: %v -> %v", small.CPI, large.CPI)
	}
}

func TestMPIRoughlyFlatAcrossProcessors(t *testing.T) {
	// The paper's surprising result: MPI does not increase with the
	// processor count (coherence misses are negligible).
	p1 := run(t, fastConfig(120, 10, 1))
	p4 := run(t, fastConfig(120, 26, 4))
	if r := p4.MPI / p1.MPI; r > 1.35 {
		t.Fatalf("MPI grew %.2fx from 1P to 4P", r)
	}
	// CPI, however, does increase with P (bus queueing).
	if p4.BusTime <= p1.BusTime {
		t.Fatalf("bus time did not grow with P: %v -> %v", p1.BusTime, p4.BusTime)
	}
}

// TestCoherence pins the edges of the snoop walk and the direction of
// the paper's coherence ablation: no coherence misses without a remote
// cache to snoop, a share that grows with P, and fewer L3 misses when
// coherence is switched off.
func TestCoherence(t *testing.T) {
	m := run(t, fastConfig(200, 30, 4))
	if m.CoherenceShare <= 0 {
		t.Fatal("no coherence misses on a 4P system")
	}
	if m.CoherenceShare > 0.25 {
		t.Fatalf("coherence share = %v, want small", m.CoherenceShare)
	}
	uni := run(t, fastConfig(200, 12, 1))
	if uni.CoherenceShare != 0 {
		t.Fatalf("1P system has coherence misses: %v", uni.CoherenceShare)
	}
	cfg := fastConfig(200, 12, 1)
	cfg.Coherent = false
	if uniOff := run(t, cfg); uniOff != uni {
		t.Fatalf("coherence flag changed a 1P run:\n%+v\n%+v", uni, uniOff)
	}
	cfg = fastConfig(200, 30, 4)
	cfg.Coherent = false
	off := run(t, cfg)
	if off.CoherenceShare != 0 {
		t.Fatalf("coherence disabled but share = %v", off.CoherenceShare)
	}
	if off.MPI >= m.MPI {
		t.Fatalf("disabling coherence did not lower 4P MPI: %v -> %v", m.MPI, off.MPI)
	}
	dual := run(t, fastConfig(200, 20, 2))
	if dual.CoherenceShare <= 0 || dual.CoherenceShare >= m.CoherenceShare {
		t.Fatalf("coherence share does not grow with P: 2P=%v 4P=%v", dual.CoherenceShare, m.CoherenceShare)
	}
}

func TestDiskTrafficRegions(t *testing.T) {
	cached := run(t, fastConfig(10, 8, 4))
	if cached.ReadKBPerTxn > 0.5 {
		t.Fatalf("cached setup reads %v KB/txn, want ~0", cached.ReadKBPerTxn)
	}
	if cached.BufferHitRatio < 0.999 {
		t.Fatalf("cached setup hit ratio = %v", cached.BufferHitRatio)
	}
	scaled := run(t, fastConfig(360, 48, 4))
	if scaled.ReadKBPerTxn < 5 {
		t.Fatalf("scaled setup reads %v KB/txn, want substantial", scaled.ReadKBPerTxn)
	}
	if scaled.LogKBPerTxn < 4 || scaled.LogKBPerTxn > 8 {
		t.Fatalf("log = %v KB/txn, want ~6", scaled.LogKBPerTxn)
	}
	if scaled.WriteKBPerTxn <= cached.WriteKBPerTxn {
		t.Fatalf("writes did not grow: %v -> %v", cached.WriteKBPerTxn, scaled.WriteKBPerTxn)
	}
}

func TestContextSwitchShape(t *testing.T) {
	// Figure 8: contention spike at 10W, dip in the middle, I/O-driven
	// growth at scale.
	spike := run(t, fastConfig(10, 8, 4))
	dip := run(t, fastConfig(50, 16, 4))
	io := run(t, fastConfig(360, 48, 4))
	if spike.CtxSwitchPerTxn <= dip.CtxSwitchPerTxn {
		t.Fatalf("no contention spike: 10W=%v 50W=%v", spike.CtxSwitchPerTxn, dip.CtxSwitchPerTxn)
	}
	if io.CtxSwitchPerTxn <= dip.CtxSwitchPerTxn {
		t.Fatalf("no I/O growth: 50W=%v 360W=%v", dip.CtxSwitchPerTxn, io.CtxSwitchPerTxn)
	}
	if spike.BusyWaitsPerTxn <= io.BusyWaitsPerTxn {
		t.Fatal("contention waits should concentrate at small W")
	}
}

func TestL3DominatesCPIBreakdown(t *testing.T) {
	m := run(t, fastConfig(200, 30, 4))
	share := m.Breakdown.Share()
	if share["L3"] < 0.4 {
		t.Fatalf("L3 share = %v, want dominant", share["L3"])
	}
	// The computed breakdown must reproduce the measured CPI (our timing
	// model is the Table 4 model, so the identity is exact up to bus-time
	// averaging).
	if rel := math.Abs(m.Breakdown.Total()-m.CPI) / m.CPI; rel > 0.02 {
		t.Fatalf("breakdown total %.3f vs measured CPI %.3f", m.Breakdown.Total(), m.CPI)
	}
}

func TestBranchAndComputeFlat(t *testing.T) {
	small := run(t, fastConfig(10, 8, 4))
	large := run(t, fastConfig(360, 48, 4))
	if small.Breakdown.Inst != large.Breakdown.Inst {
		t.Fatal("Inst component should be constant")
	}
	db := math.Abs(large.Breakdown.Branch - small.Breakdown.Branch)
	if db > 0.15*small.Breakdown.Branch+0.05 {
		t.Fatalf("branch component not flat: %v -> %v", small.Breakdown.Branch, large.Breakdown.Branch)
	}
}

func TestUtilizationNeedsClients(t *testing.T) {
	starved := run(t, fastConfig(360, 8, 4))
	fed := run(t, fastConfig(360, 48, 4))
	if starved.CPUUtil >= fed.CPUUtil {
		t.Fatalf("more clients did not raise utilization: %v -> %v", starved.CPUUtil, fed.CPUUtil)
	}
}

func TestItaniumPreset(t *testing.T) {
	xeon := fastConfig(200, 30, 4)
	it := xeon
	it.Machine = Itanium2Quad()
	mx := run(t, xeon)
	mi := run(t, it)
	// The 3 MB L3 must lower the miss rate and CPI at this size.
	if mi.MPI >= mx.MPI {
		t.Fatalf("Itanium2 MPI %v >= Xeon %v", mi.MPI, mx.MPI)
	}
	if mi.CPI >= mx.CPI {
		t.Fatalf("Itanium2 CPI %v >= Xeon %v", mi.CPI, mx.CPI)
	}
}

func TestHeuristicClients(t *testing.T) {
	if HeuristicClients(10, 1) < 8 {
		t.Fatal("floor violated")
	}
	if HeuristicClients(800, 4) > 64 {
		t.Fatal("cap violated")
	}
	if HeuristicClients(800, 4) <= HeuristicClients(10, 4) {
		t.Fatal("clients should grow with warehouses")
	}
	if HeuristicClients(500, 4) <= HeuristicClients(500, 1) {
		t.Fatal("clients should grow with processors")
	}
}

func TestMetricsString(t *testing.T) {
	m := run(t, fastConfig(10, 8, 1))
	if m.String() == "" {
		t.Fatal("empty String")
	}
}

func TestRunTraced(t *testing.T) {
	var buf testBuffer
	cfg := fastConfig(25, 10, 2)
	var refs uint64
	m, err := Run(context.Background(), cfg, WithTrace(&buf, &refs))
	if err != nil {
		t.Fatal(err)
	}
	if refs == 0 || m.Txns == 0 {
		t.Fatalf("traced run captured refs=%d txns=%d", refs, m.Txns)
	}
	// Header (6 bytes) plus 10 bytes per record.
	if want := 6 + int(refs)*10; buf.n != want {
		t.Fatalf("trace size = %d, want %d", buf.n, want)
	}
	if _, err := Run(context.Background(), Config{}, WithTrace(&buf, &refs)); err == nil {
		t.Fatal("bad config accepted")
	}
}

// testBuffer counts bytes without storing them.
type testBuffer struct{ n int }

func (b *testBuffer) Write(p []byte) (int, error) {
	b.n += len(p)
	return len(p), nil
}

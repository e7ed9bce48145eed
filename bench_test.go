// Benchmarks regenerating every table and figure of the paper, plus
// ablations of the design choices DESIGN.md calls out. Each benchmark
// runs the corresponding experiment once per iteration and reports the
// headline quantities through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction harness. The sweeps use reduced
// measurement lengths; cmd/paperrepro runs the full-precision campaign.
package odbscale_test

import (
	"context"
	"testing"

	"odbscale"
	"odbscale/internal/campaign"
	"odbscale/internal/experiment"
	"odbscale/internal/qstats"
	"odbscale/internal/system"
	"odbscale/internal/telemetry"
)

// benchSpec returns a campaign over ws × ps sized for benchmarking.
func benchSpec(ws, ps []int) campaign.Spec {
	s := experiment.DefaultSpec(ws, ps)
	s.MeasureTxns = 1000
	s.TuneTxns = 600
	s.WarmupTxns = 300
	s.AutoTune = false
	return s
}

var benchWs = []int{10, 25, 50, 100, 150, 200, 300, 500, 800}

// collect runs one campaign per benchmark iteration.
func collect(b *testing.B, spec campaign.Spec) *campaign.Result {
	b.Helper()
	res, err := campaign.Run(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1ClientTuning reproduces Table 1: the client counts
// needed to hold CPU utilization above 90% across the W x P grid.
func BenchmarkTable1ClientTuning(b *testing.B) {
	spec := benchSpec([]int{10, 50, 100, 500, 800}, []int{1, 2, 4})
	spec.AutoTune = true
	for i := 0; i < b.N; i++ {
		res := collect(b, spec)
		t := experiment.Table1(res)
		if i == 0 {
			b.Log("\n" + t.String())
			last, _ := res.Metrics(800, 4)
			first, _ := res.Metrics(10, 1)
			b.ReportMetric(float64(last.Clients), "clients@800W4P")
			b.ReportMetric(float64(first.Clients), "clients@10W1P")
		}
	}
}

// BenchmarkFigure2TPS reproduces Figure 2: TPS versus warehouses per
// processor count, including the I/O-bound 1200-warehouse point.
func BenchmarkFigure2TPS(b *testing.B) {
	spec := benchSpec(append(append([]int{}, benchWs...), 1200), []int{1, 2, 4})
	for i := 0; i < b.N; i++ {
		res := collect(b, spec)
		if i == 0 {
			b.Log("\n" + experiment.RenderSeries("Figure 2: TPS", experiment.Figure2(res), 0))
			s4 := res.Series(4)
			b.ReportMetric(s4[0].TPS, "TPS@10W4P")
			b.ReportMetric(s4[len(s4)-2].TPS, "TPS@800W4P")
			b.ReportMetric(s4[len(s4)-1].CPUUtil, "util@1200W4P")
		}
	}
}

// BenchmarkFigure3UtilSplit reproduces Figure 3: the OS/user CPU split.
func BenchmarkFigure3UtilSplit(b *testing.B) {
	spec := benchSpec(benchWs, []int{4})
	for i := 0; i < b.N; i++ {
		res := collect(b, spec)
		if i == 0 {
			b.Log("\n" + experiment.RenderSeries("Figure 3: utilization split (4P)", experiment.Figure3(res), 3))
			ms := res.Series(4)
			b.ReportMetric(ms[0].OSShare, "os-share@10W")
			b.ReportMetric(ms[len(ms)-1].OSShare, "os-share@800W")
		}
	}
}

// benchIPXFigure factors Figures 4-6 (IPX and its user/OS split).
func benchIPXFigure(b *testing.B, title string, fig func(*campaign.Result) []odbscale.Series,
	metric func(system.Metrics) float64, unit string) {
	spec := benchSpec(benchWs, []int{1, 2, 4})
	for i := 0; i < b.N; i++ {
		res := collect(b, spec)
		if i == 0 {
			b.Log("\n" + experiment.RenderSeries(title, fig(res), 0))
			ms := res.Series(4)
			b.ReportMetric(metric(ms[0]), unit+"@10W")
			b.ReportMetric(metric(ms[len(ms)-1]), unit+"@800W")
		}
	}
}

// BenchmarkFigure4IPX reproduces Figure 4: instructions per transaction.
func BenchmarkFigure4IPX(b *testing.B) {
	benchIPXFigure(b, "Figure 4: IPX", experiment.Figure4,
		func(m system.Metrics) float64 { return m.IPX }, "IPX")
}

// BenchmarkFigure5UserIPX reproduces Figure 5: flat user-space IPX.
func BenchmarkFigure5UserIPX(b *testing.B) {
	benchIPXFigure(b, "Figure 5: user IPX", experiment.Figure5,
		func(m system.Metrics) float64 { return m.UserIPX }, "userIPX")
}

// BenchmarkFigure6OSIPX reproduces Figure 6: rising OS-space IPX.
func BenchmarkFigure6OSIPX(b *testing.B) {
	benchIPXFigure(b, "Figure 6: OS IPX", experiment.Figure6,
		func(m system.Metrics) float64 { return m.OSIPX }, "osIPX")
}

// BenchmarkFigure7DiskIO reproduces Figure 7: disk traffic per
// transaction (reads, data writes, log).
func BenchmarkFigure7DiskIO(b *testing.B) {
	spec := benchSpec(benchWs, []int{4})
	for i := 0; i < b.N; i++ {
		res := collect(b, spec)
		if i == 0 {
			b.Log("\n" + experiment.RenderSeries("Figure 7: disk KB/txn (4P)", experiment.Figure7(res), 2))
			ms := res.Series(4)
			b.ReportMetric(ms[0].ReadKBPerTxn, "readKB@10W")
			b.ReportMetric(ms[len(ms)-1].ReadKBPerTxn, "readKB@800W")
			b.ReportMetric(ms[len(ms)-1].LogKBPerTxn, "logKB@800W")
		}
	}
}

// BenchmarkFigure8CtxSwitch reproduces Figure 8: the contention spike,
// dip and I/O-driven rise of context switches per transaction.
func BenchmarkFigure8CtxSwitch(b *testing.B) {
	spec := benchSpec(benchWs, []int{4})
	for i := 0; i < b.N; i++ {
		res := collect(b, spec)
		if i == 0 {
			b.Log("\n" + experiment.RenderSeries("Figure 8: ctx switches/txn", experiment.Figure8(res), 2))
			ms := res.Series(4)
			b.ReportMetric(ms[0].CtxSwitchPerTxn, "cs@10W")
			b.ReportMetric(ms[2].CtxSwitchPerTxn, "cs@50W")
			b.ReportMetric(ms[len(ms)-1].CtxSwitchPerTxn, "cs@800W")
		}
	}
}

// benchCPIFigure factors Figures 9-11.
func benchCPIFigure(b *testing.B, title string, fig func(*campaign.Result) []odbscale.Series,
	metric func(system.Metrics) float64, unit string) {
	spec := benchSpec(benchWs, []int{1, 2, 4})
	for i := 0; i < b.N; i++ {
		res := collect(b, spec)
		if i == 0 {
			b.Log("\n" + experiment.RenderSeries(title, fig(res), 3))
			ms := res.Series(4)
			b.ReportMetric(metric(ms[0]), unit+"@10W")
			b.ReportMetric(metric(ms[len(ms)-1]), unit+"@800W")
		}
	}
}

// BenchmarkFigure9CPI reproduces Figure 9: overall CPI.
func BenchmarkFigure9CPI(b *testing.B) {
	benchCPIFigure(b, "Figure 9: CPI", experiment.Figure9,
		func(m system.Metrics) float64 { return m.CPI }, "CPI")
}

// BenchmarkFigure10UserCPI reproduces Figure 10.
func BenchmarkFigure10UserCPI(b *testing.B) {
	benchCPIFigure(b, "Figure 10: user CPI", experiment.Figure10,
		func(m system.Metrics) float64 { return m.UserCPI }, "userCPI")
}

// BenchmarkFigure11OSCPI reproduces Figure 11.
func BenchmarkFigure11OSCPI(b *testing.B) {
	benchCPIFigure(b, "Figure 11: OS CPI", experiment.Figure11,
		func(m system.Metrics) float64 { return m.OSCPI }, "osCPI")
}

// BenchmarkFigure12Breakdown reproduces Figure 12: the CPI component
// breakdown (Tables 3 and 4 applied to measured event rates).
func BenchmarkFigure12Breakdown(b *testing.B) {
	spec := benchSpec(benchWs, []int{4})
	for i := 0; i < b.N; i++ {
		res := collect(b, spec)
		if i == 0 {
			t12 := experiment.Figure12(res)
			b.Log("\n" + t12.String())
			ms := res.Series(4)
			last := ms[len(ms)-1].Breakdown
			b.ReportMetric(last.L3/last.Total(), "L3-share@800W")
			b.ReportMetric(last.Branch, "branchCPI@800W")
		}
	}
}

// benchMPIFigure factors Figures 13-15.
func benchMPIFigure(b *testing.B, title string, fig func(*campaign.Result) []odbscale.Series,
	metric func(system.Metrics) float64, unit string) {
	spec := benchSpec(benchWs, []int{1, 2, 4})
	for i := 0; i < b.N; i++ {
		res := collect(b, spec)
		if i == 0 {
			b.Log("\n" + experiment.RenderSeries(title, fig(res), 5))
			m4 := res.Series(4)
			m1 := res.Series(1)
			b.ReportMetric(metric(m4[0])*1000, unit+"e3@10W4P")
			b.ReportMetric(metric(m4[len(m4)-1])*1000, unit+"e3@800W4P")
			b.ReportMetric(metric(m4[len(m4)-1])/metric(m1[len(m1)-1]), unit+"-4P/1P")
		}
	}
}

// BenchmarkFigure13MPI reproduces Figure 13: L3 MPI (flat across P).
func BenchmarkFigure13MPI(b *testing.B) {
	benchMPIFigure(b, "Figure 13: MPI", experiment.Figure13,
		func(m system.Metrics) float64 { return m.MPI }, "MPI")
}

// BenchmarkFigure14UserMPI reproduces Figure 14.
func BenchmarkFigure14UserMPI(b *testing.B) {
	benchMPIFigure(b, "Figure 14: user MPI", experiment.Figure14,
		func(m system.Metrics) float64 { return m.UserMPI }, "userMPI")
}

// BenchmarkFigure15OSMPI reproduces Figure 15.
func BenchmarkFigure15OSMPI(b *testing.B) {
	benchMPIFigure(b, "Figure 15: OS MPI", experiment.Figure15,
		func(m system.Metrics) float64 { return m.OSMPI }, "osMPI")
}

// BenchmarkFigure16IOQ reproduces Figure 16: bus-transaction time in the
// IOQ, flat near 102 cycles at 1P and rising with utilization at 4P.
func BenchmarkFigure16IOQ(b *testing.B) {
	spec := benchSpec(benchWs, []int{1, 2, 4})
	for i := 0; i < b.N; i++ {
		res := collect(b, spec)
		if i == 0 {
			b.Log("\n" + experiment.RenderSeries("Figure 16: IOQ time (cycles)", experiment.Figure16(res), 1))
			m1 := res.Series(1)
			m4 := res.Series(4)
			b.ReportMetric(m1[len(m1)-1].BusTime, "bus@800W1P")
			b.ReportMetric(m4[len(m4)-1].BusTime, "bus@800W4P")
			b.ReportMetric(m4[len(m4)-1].BusUtil, "busutil@800W4P")
		}
	}
}

// BenchmarkFigure17CPIPivot reproduces Figure 17: the two-region fit of
// 4P CPI and its pivot point.
func BenchmarkFigure17CPIPivot(b *testing.B) {
	spec := benchSpec(benchWs, []int{4})
	for i := 0; i < b.N; i++ {
		res := collect(b, spec)
		char, err := experiment.Characterize(res, 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("cached %s / scaled %s", char.CPI.Fit.Cached, char.CPI.Fit.Scaled)
			b.ReportMetric(char.CPI.Pivot(), "pivot-W")
			b.ReportMetric(char.CPI.Fit.Cached.Slope/char.CPI.Fit.Scaled.Slope, "slope-ratio")
		}
	}
}

// BenchmarkFigure18MPIPivot reproduces Figure 18: the 4P MPI fit.
func BenchmarkFigure18MPIPivot(b *testing.B) {
	spec := benchSpec(benchWs, []int{4})
	for i := 0; i < b.N; i++ {
		res := collect(b, spec)
		char, err := experiment.Characterize(res, 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(char.MPI.Pivot(), "pivot-W")
		}
	}
}

// BenchmarkTable5Pivots reproduces Table 5: CPI and MPI pivots for all
// processor configurations.
func BenchmarkTable5Pivots(b *testing.B) {
	spec := benchSpec(benchWs, []int{1, 2, 4})
	for i := 0; i < b.N; i++ {
		res := collect(b, spec)
		t5, err := experiment.Table5(res)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t5.String())
			for _, p := range []int{1, 2, 4} {
				char, err := experiment.Characterize(res, p)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(char.CPI.Pivot(), map[int]string{1: "cpi-pivot-1P", 2: "cpi-pivot-2P", 4: "cpi-pivot-4P"}[p])
			}
		}
	}
}

// BenchmarkFigure19Itanium reproduces Figure 19: CPI scaling on the
// Itanium2 validation platform.
func BenchmarkFigure19Itanium(b *testing.B) {
	spec := benchSpec(benchWs, []int{4})
	spec.Machine = system.Itanium2Quad()
	for i := 0; i < b.N; i++ {
		cpi, char, err := experiment.Figure19(collect(b, spec), 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiment.RenderSeries("Figure 19: Itanium2 CPI (4P)", []odbscale.Series{cpi}, 3))
			b.ReportMetric(char.CPI.Pivot(), "pivot-W")
			b.ReportMetric(cpi.Points[0].Y, "CPI@10W")
			b.ReportMetric(cpi.Points[len(cpi.Points)-1].Y, "CPI@800W")
		}
	}
}

// --- ablation benches: the design choices DESIGN.md section 5 lists ---

func runAblation(b *testing.B, mutate func(*system.Config)) system.Metrics {
	b.Helper()
	cfg := system.DefaultConfig(200, system.HeuristicClients(200, 4), 4)
	cfg.MeasureTxns = 1200
	cfg.WarmupTxns = 300
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := system.Run(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkAblationCoherence toggles MESI snooping: the paper's claim is
// that coherence misses barely matter on this platform.
func BenchmarkAblationCoherence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := runAblation(b, nil)
		off := runAblation(b, func(c *system.Config) { c.Coherent = false })
		if i == 0 {
			b.ReportMetric(on.MPI/off.MPI, "MPI-ratio-coh/nocoh")
			b.ReportMetric(on.CoherenceShare, "coherence-share")
		}
	}
}

// BenchmarkAblationBusBandwidth scales the FSB: CPI falls with more
// bandwidth even though MPI does not (Figure 16's mechanism).
func BenchmarkAblationBusBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		slow := runAblation(b, nil)
		fast := runAblation(b, func(c *system.Config) { c.Machine.Bus.BandwidthScale = 2 })
		if i == 0 {
			b.ReportMetric(slow.BusTime-fast.BusTime, "bus-cycles-saved")
			b.ReportMetric(slow.CPI-fast.CPI, "CPI-saved")
			b.ReportMetric(fast.MPI/slow.MPI, "MPI-ratio")
		}
	}
}

// BenchmarkAblationL3Capacity grows the L3: the paper's recommended
// optimization direction.
func BenchmarkAblationL3Capacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		small := runAblation(b, nil)
		big := runAblation(b, func(c *system.Config) { c.Machine.Geometry.L3Size = 4 << 20 })
		if i == 0 {
			b.ReportMetric(small.MPI/big.MPI, "MPI-ratio-1MB/4MB")
			b.ReportMetric(big.TPS/small.TPS, "TPS-gain")
		}
	}
}

// BenchmarkAblationClients compares starved and saturated client counts:
// the masking methodology behind Table 1.
func BenchmarkAblationClients(b *testing.B) {
	for i := 0; i < b.N; i++ {
		starved := runAblation(b, func(c *system.Config) { c.Clients = 8 })
		fed := runAblation(b, nil)
		if i == 0 {
			b.ReportMetric(starved.CPUUtil, "util-8-clients")
			b.ReportMetric(fed.CPUUtil, "util-tuned")
		}
	}
}

// BenchmarkAblationDisks shrinks the array: the I/O-bound region arrives
// earlier with less spindle bandwidth.
func BenchmarkAblationDisks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		many := runAblation(b, nil)
		few := runAblation(b, func(c *system.Config) { c.Machine.Disks.DataDisks = 6 })
		if i == 0 {
			b.ReportMetric(many.CPUUtil, "util-24-disks")
			b.ReportMetric(few.CPUUtil, "util-6-disks")
			b.ReportMetric(few.ReadLatencyMS, "read-ms-6-disks")
		}
	}
}

// BenchmarkAblationSwitchCost sweeps the context-switch path length,
// the OS overhead the paper ties to the scaled region's IPX slope.
func BenchmarkAblationSwitchCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cheap := runAblation(b, func(c *system.Config) { c.Tuning.CtxSwitchInstr = 3_000 })
		costly := runAblation(b, func(c *system.Config) { c.Tuning.CtxSwitchInstr = 30_000 })
		if i == 0 {
			b.ReportMetric(costly.OSIPX-cheap.OSIPX, "osIPX-delta")
			b.ReportMetric(cheap.TPS/costly.TPS, "TPS-ratio")
		}
	}
}

// BenchmarkSingleConfiguration measures the simulator's own speed on one
// mid-sized configuration — the cost of one data point.
func BenchmarkSingleConfiguration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := runAblation(b, nil)
		if i == 0 {
			b.ReportMetric(m.TPS, "TPS")
		}
	}
}

// BenchmarkFlightRecorder measures the flight recorder's cost on the
// single-configuration workload: "off" is the plain simulator, "on" adds
// the 100 ms timeline sampler and per-transaction latency spans. The
// observability contract is that "on" stays within 2% of "off".
func BenchmarkFlightRecorder(b *testing.B) {
	cfg := system.DefaultConfig(200, system.HeuristicClients(200, 4), 4)
	cfg.MeasureTxns = 1200
	cfg.WarmupTxns = 300
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := system.Run(context.Background(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := telemetry.NewRecorder(telemetry.Config{})
			if _, err := system.Run(context.Background(), cfg, system.WithRecorder(rec)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFullRunAllocations is the first optimization round's target
// workload (full-run-w200-p4 in the historical BENCH_head.json) run
// under -benchmem: the W=200, P=4 full run whose wall clock and
// allocation count that round recorded.
func BenchmarkFullRunAllocations(b *testing.B) {
	cfg := system.DefaultConfig(200, system.HeuristicClients(200, 4), 4)
	cfg.MeasureTxns = 1200
	cfg.WarmupTxns = 300
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := system.Run(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunObservers measures the full observer stack — flight
// recorder plus cycle profiler through the one Run entry point —
// against the bare run, pinning the claim that observers are cheap
// attachments rather than separate code paths.
func BenchmarkRunObservers(b *testing.B) {
	cfg := system.DefaultConfig(200, system.HeuristicClients(200, 4), 4)
	cfg.MeasureTxns = 1200
	cfg.WarmupTxns = 300
	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := system.Run(context.Background(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recorder+profiler", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := telemetry.NewRecorder(telemetry.Config{})
			col := odbscale.NewProfileCollector()
			if _, err := system.Run(context.Background(), cfg,
				system.WithRecorder(rec), system.WithProfiler(col)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueueStats measures the queueing observatory's cost on the
// bench trajectory workload: "off" is the plain simulator, "on" attaches
// WithQueueStats. The tentpole contract is that "on" stays within 2% of
// "off" — station accumulation is inline arithmetic at event sites the
// simulator already executes.
func BenchmarkQueueStats(b *testing.B) {
	cfg := system.DefaultConfig(200, system.HeuristicClients(200, 4), 4)
	cfg.MeasureTxns = 1200
	cfg.WarmupTxns = 300
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := system.Run(context.Background(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			col := qstats.NewCollector()
			if _, err := system.Run(context.Background(), cfg, system.WithQueueStats(col)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStationAccumulation pins the hot-path allocation contract of
// the accumulators themselves: Arrive/Complete/Visit and the derived
// Build must not allocate per call — they run inside the per-chunk
// event path of every run that attaches the observatory.
func BenchmarkStationAccumulation(b *testing.B) {
	var st qstats.Station
	in := new(qstats.Input)
	in.ElapsedCycles = 1e9
	in.CyclesPerMS = 1e6
	in.Commits = 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Arrive()
		st.Complete(100, 400)
		st.Visit(10, 50)
		in.Counts[qstats.Disk] = st.Counts()
	}
	if testing.AllocsPerRun(100, func() {
		st.Arrive()
		st.Complete(100, 400)
		st.Visit(10, 50)
	}) != 0 {
		b.Fatal("station accumulation allocates on the hot path")
	}
}

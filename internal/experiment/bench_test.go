// Benchmarks over the paper's evaluation: BenchmarkClaims runs one
// campaign per platform and evaluates the claim table (experiment.Claims)
// on it, and the ablation benchmarks vary the design choices DESIGN.md
// calls out. Each reports its headline quantities through
// b.ReportMetric:
//
//	go test -run '^$' -bench . ./internal/experiment
//
// The sweeps use reduced measurement lengths; cmd/paperrepro runs the
// full-precision campaign and prints every table and figure.
package experiment_test

import (
	"context"
	"testing"

	"odbscale/internal/campaign"
	"odbscale/internal/experiment"
	"odbscale/internal/system"
)

// BenchmarkClaims runs the Xeon campaign behind Tables 1 and 5 and
// Figures 2-18 (with Figure 2's I/O-bound 1200W point) and Figure 19's
// Itanium2 campaign at reduced lengths, then evaluates the claim table.
// It reports the 4P and Itanium2 pivots and the number of rows whose
// outcome differs from the expected one.
func BenchmarkClaims(b *testing.B) {
	ws := []int{10, 25, 50, 100, 150, 200, 300, 500, 800}
	xeon := experiment.DefaultSpec(append(append([]int{}, ws...), 1200), []int{1, 2, 4})
	xeon.AutoTune, xeon.WarmupTxns, xeon.MeasureTxns = false, 300, 1000
	itanium := xeon
	itanium.Machine, itanium.Warehouses, itanium.Processors = system.Itanium2Quad(), ws, []int{4}
	for i := 0; i < b.N; i++ {
		xres, errX := campaign.Run(context.Background(), xeon)
		ires, errI := campaign.Run(context.Background(), itanium)
		if errX != nil || errI != nil {
			b.Fatal(errX, errI)
		}
		unexpected := 0
		for _, c := range experiment.Claims(xres, ires) {
			if c.Holds != c.Expect {
				unexpected++
				b.Logf("unexpected: %s holds=%v (%s)", c.ID, c.Holds, c.Ours)
			}
		}
		cx, errX := experiment.Characterize(xres, 4)
		ci, errI := experiment.Characterize(ires, 4)
		if errX != nil || errI != nil {
			b.Fatal(errX, errI)
		}
		b.ReportMetric(cx.CPI.Pivot(), "cpi-pivot-4P")
		b.ReportMetric(cx.MPI.Pivot(), "mpi-pivot-4P")
		b.ReportMetric(ci.CPI.Pivot(), "itanium-cpi-pivot")
		b.ReportMetric(float64(unexpected), "unexpected-rows")
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

// Command paperrepro regenerates every table and figure of the paper's
// evaluation: Table 1 (tuned clients), Figures 2-16 (scaling behaviour),
// Figures 17/18 and Table 5 (piecewise fits and pivot points), and
// Figure 19 (the Itanium2 validation platform). Output is paper-style
// aligned text; -quick trades precision for speed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"odbscale/cmd/internal/runflags"
	"odbscale/internal/campaign"
	"odbscale/internal/core"
	"odbscale/internal/experiment"
	"odbscale/internal/perfmon"
	"odbscale/internal/stats"
	"odbscale/internal/system"
)

func main() {
	quick := flag.Bool("quick", false, "smaller sweeps and shorter runs")
	seed := flag.Int64("seed", 1, "random seed")
	noTune := flag.Bool("notune", false, "use the client heuristic instead of the 90% tuner")
	camp := runflags.RegisterCampaign(flag.CommandLine)
	flag.Parse()

	ws := experiment.StandardWarehouses
	if *quick {
		ws = []int{10, 25, 50, 100, 150, 200, 300, 500, 800}
	}
	spec := experiment.DefaultSpec(ws, experiment.StandardProcessors)
	spec.Seed = *seed
	spec.AutoTune = !*noTune
	if *quick {
		spec.MeasureTxns = 1200
		spec.TuneTxns = 800
		spec.WarmupTxns = 400
	}

	fmt.Println("== ODB scaling reproduction (Hankins et al., MICRO 2003) ==")
	fmt.Printf("platform: %s, sweep W=%v, P=%v, tuner=%v\n\n", spec.Machine.Name, ws, spec.Processors, spec.AutoTune)

	// Main campaign, with the I/O-bound 1200-warehouse point appended for
	// Figure 2 only. It runs through the campaign runner: every point and
	// tuner probe on one worker pool, with checkpoint/resume and a live
	// progress line; Ctrl-C stops cleanly with the checkpoint intact.
	xeon := spec
	xeon.Warehouses = append(append([]int{}, ws...), 1200)
	res, err := camp.Run(xeon)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(experiment.Table1(res))
	f2 := experiment.Figure2(res)
	fmt.Println(experiment.RenderSeries("Figure 2: ODB TPS vs warehouses (1200W is I/O bound)", f2, 0))
	fmt.Println(stats.Chart{Title: "Figure 2 (chart): TPS vs W"}.Render(f2...))
	fmt.Println(experiment.RenderSeries("Figure 3: CPU utilization split (4P)", experiment.Figure3(res), 3))
	fmt.Println(experiment.RenderSeries("Figure 4: instructions per transaction", experiment.Figure4(res), 0))
	fmt.Println(experiment.RenderSeries("Figure 5: user-space IPX", experiment.Figure5(res), 0))
	fmt.Println(experiment.RenderSeries("Figure 6: OS-space IPX", experiment.Figure6(res), 0))
	fmt.Println(experiment.RenderSeries("Figure 7: disk I/O per transaction (KB, 4P)", experiment.Figure7(res), 2))
	f8 := experiment.Figure8(res)
	fmt.Println(experiment.RenderSeries("Figure 8: context switches per transaction", f8, 2))
	fmt.Println(stats.Chart{Title: "Figure 8 (chart): contention spike, dip, I/O rise"}.Render(f8...))
	f9 := experiment.Figure9(res)
	fmt.Println(experiment.RenderSeries("Figure 9: CPI", f9, 3))
	fmt.Println(stats.Chart{Title: "Figure 9 (chart): CPI cached/scaled regions"}.Render(f9...))
	fmt.Println(experiment.RenderSeries("Figure 10: user-space CPI", experiment.Figure10(res), 3))
	fmt.Println(experiment.RenderSeries("Figure 11: OS-space CPI", experiment.Figure11(res), 3))

	printTables23()
	fmt.Println(experiment.Figure12(res))
	f13 := experiment.Figure13(res)
	fmt.Println(experiment.RenderSeries("Figure 13: L3 misses per instruction", f13, 5))
	fmt.Println(stats.Chart{Title: "Figure 13 (chart): MPI saturating, independent of P"}.Render(f13...))
	fmt.Println(experiment.RenderSeries("Figure 14: user-space MPI", experiment.Figure14(res), 5))
	fmt.Println(experiment.RenderSeries("Figure 15: OS-space MPI", experiment.Figure15(res), 5))
	f16 := experiment.Figure16(res)
	fmt.Println(experiment.RenderSeries("Figure 16: bus-transaction time in the IOQ (cycles)", f16, 1))
	fmt.Println(stats.Chart{Title: "Figure 16 (chart): IOQ latency flat at 1P, rising at 4P"}.Render(f16...))

	// Figures 17/18: the 4P fits.
	char, err := experiment.Characterize(res, 4)
	if err != nil {
		log.Fatal(err)
	}
	printFit("Figure 17: two-region fit of 4P CPI", char.CPI)
	printFit("Figure 18: two-region fit of 4P MPI", char.MPI)

	t5, err := experiment.Table5(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(t5)
	fmt.Printf("Representative scaled configuration (CPI pivot + 25%% margin): %d warehouses\n\n",
		char.MinimalConfiguration(0.25))

	// Figure 19: the same sweep at 4P on the Itanium2 validation platform.
	itanium := spec
	itanium.Machine = system.Itanium2Quad()
	itanium.Processors = []int{4}
	itRes, err := campaign.Run(context.Background(), itanium)
	if err != nil {
		log.Fatal(err)
	}
	cpi, itChar, err := experiment.Figure19(itRes, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiment.RenderSeries("Figure 19: CPI scaling on the Itanium2 platform (4P)", []stats.Series{cpi}, 3))
	fmt.Printf("Itanium2 CPI pivot: %.0f warehouses (Xeon: %.0f)\n", itChar.CPI.Pivot(), char.CPI.Pivot())

	for _, err := range []error{verifyIronLaw(res, xeon.Machine), verifyIronLaw(itRes, itanium.Machine)} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "iron law verification failed: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Println("\niron law verified on every measured configuration")
}

// printTables23 prints the static Tables 2 and 3 from their definitions.
func printTables23() {
	t2 := stats.Table{Title: "Table 2: Performance-Monitoring Events Used in CPI Analysis",
		Header: []string{"Event Alias", "EMON Events Used", "Description"}}
	for _, e := range perfmon.Events() {
		d := perfmon.Table2[e]
		t2.AddRow(d.Alias, d.EMONEvent, d.Description)
	}
	fmt.Println(t2)

	c := system.XeonQuad().Stall
	t3 := stats.Table{Title: "Table 3: Clock Cycle Cost for Each Component",
		Header: []string{"Event Alias", "Cycles per Event"}}
	t3.AddRow("Instruction", stats.F(c.InstBase, 1))
	t3.AddRow("Branch Misprediction", stats.F(c.BranchMispred, 0))
	t3.AddRow("TLB Miss", stats.F(c.TLBMiss, 0))
	t3.AddRow("TC Miss", stats.F(c.TCMiss, 0))
	t3.AddRow("L2 Miss", stats.F(c.L2Miss, 0)+" (measured)")
	t3.AddRow("L3 Miss", stats.F(c.L3Miss, 0)+" (measured)")
	t3.AddRow("Bus-Transaction Time for 1P", stats.F(c.BusTime1P, 0)+" (measured)")
	fmt.Println(t3)
}

func printFit(title string, fit core.ScalingFit) {
	fmt.Println(title)
	fmt.Printf("  cached region: %s\n", fit.Fit.Cached)
	fmt.Printf("  scaled region: %s\n", fit.Fit.Scaled)
	fmt.Printf("  pivot point:   %.0f warehouses\n\n", fit.Pivot())
}

// verifyIronLaw checks TPS = util*P*F/(IPX*CPI) to within 1e-3 on every
// point of a campaign run on mc.
func verifyIronLaw(res *campaign.Result, mc system.MachineConfig) error {
	for _, p := range res.Processors {
		for _, m := range res.Series(p) {
			law := core.IronLaw{
				Processors:  m.Processors,
				FrequencyHz: mc.FreqHz,
				IPX:         m.IPX,
				CPI:         m.CPI,
				Utilization: m.CPUUtil,
			}
			if err := law.Verify(m.TPS, 1e-3); err != nil {
				return fmt.Errorf("%s W=%d P=%d: %w", mc.Name, m.Warehouses, p, err)
			}
		}
	}
	return nil
}

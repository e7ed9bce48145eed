// Emon demonstrates the paper's measurement methodology on the live
// simulation: the machine's free-running performance counters are
// sampled in round-robin event groups (the Xeon's 18 counters come in 9
// pairs, so EMON cannot read everything at once), each group for a fixed
// window, the rotation repeated several times. The output shows the mean
// and 95% confidence interval of every Table 2 event — including the
// sampling noise the paper reports for rare events.
package main

import (
	"context"
	"fmt"
	"log"

	"odbscale/internal/perfmon"
	"odbscale/internal/system"
)

func main() {
	cfg := system.DefaultConfig(100, 32, 4)
	cfg.MeasureTxns = 2000

	// A compressed schedule (0.1 s windows, 6 rotations) keeps the run
	// short; the paper used 10 s windows over a 10-minute measurement.
	emon := perfmon.DefaultConfig(cfg.Machine.FreqHz)
	emon.Window /= 100

	var results []perfmon.Result
	m, err := system.Run(context.Background(), cfg, system.WithEMON(emon, &results))
	if err != nil {
		log.Fatal(err)
	}

	windows := 0
	for _, r := range results {
		if len(r.Samples) > windows {
			windows = len(r.Samples)
		}
	}
	fmt.Printf("sampled %d windows per event over %.2f simulated seconds\n\n",
		windows, m.ElapsedSeconds)
	fmt.Printf("%-22s %-26s %12s %12s\n", "event", "EMON name", "mean", "95% CI")
	for _, r := range results {
		if len(r.Samples) == 0 {
			continue
		}
		d := perfmon.Table2[r.Event]
		fmt.Printf("%-22s %-26s %12.6f %12.6f\n", d.Alias, d.EMONEvent, r.Mean, r.CI95)
	}

	fmt.Println("\nexact bookkeeping for comparison:")
	fmt.Printf("  MPI        %0.6f\n", m.MPI)
	fmt.Printf("  mispred/PI %0.6f\n", m.Rates.BranchMispredPI)
	fmt.Printf("  bus time   %0.1f cycles\n", m.BusTime)
	fmt.Println("\nthe sampled means track the exact rates; the CIs show the")
	fmt.Println("round-robin sampling error the paper notes for rare events.")
}

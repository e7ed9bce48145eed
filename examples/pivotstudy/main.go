// Pivotstudy applies the paper's central methodology: sweep the workload
// size, fit the two-region scaling model, find the pivot point, select
// the minimal representative configuration, and then *validate* the
// method by extrapolating CPI to a configuration far beyond the measured
// range and comparing against a direct simulation of that configuration.
//
// This is what the paper proposes researchers do: simulate at the pivot
// instead of at full production scale, and project the rest.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"

	"odbscale/internal/campaign"
	"odbscale/internal/experiment"
	"odbscale/internal/system"
	"odbscale/internal/telemetry"
)

func main() {
	ws := []int{10, 25, 50, 100, 150, 200, 300, 400, 500, 650, 800}
	const p = 4

	// The sweep runs as a campaign: one worker pool schedules every
	// point, a progress line tracks it live, and a checkpoint makes the
	// sweep resumable if interrupted (rerun to pick up where it left off).
	ctx := context.Background()
	spec := experiment.DefaultSpec(ws, []int{p})
	spec.AutoTune = false // heuristic clients keep the example brisk
	spec.MeasureTxns = 2000
	spec.CheckpointPath = "pivotstudy.checkpoint.json"
	spec.Resume = true
	spec.Observer = campaign.NewProgress(os.Stderr, len(ws))

	fmt.Printf("sweeping W=%v on %s (%dP)...\n", ws, spec.Machine.Name, p)
	res, err := campaign.Run(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	// Campaign complete: drop the checkpoint and the manifest beside it.
	defer os.Remove(spec.CheckpointPath)
	defer os.Remove(telemetry.ManifestPath(spec.CheckpointPath))

	char, err := experiment.Characterize(res, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncached region: %s\n", char.CPI.Fit.Cached)
	fmt.Printf("scaled region: %s\n", char.CPI.Fit.Scaled)
	fmt.Printf("CPI pivot: %.0f warehouses, MPI pivot: %.0f warehouses\n",
		char.CPI.Pivot(), char.MPI.Pivot())

	minimal := char.MinimalConfiguration(0.25)
	fmt.Printf("\nminimal representative configuration: %d warehouses\n", minimal)
	fmt.Println("(simulating configurations larger than this adds no new behaviour;")
	fmt.Println(" their CPI follows the scaled-region line)")

	// Validate: extrapolate to 1200 warehouses — 1.5x the largest
	// measured point, the size the paper itself could no longer hold at
	// 90% utilization — then actually simulate it.
	const target = 1200
	predicted := char.CPI.Extrapolate(target)
	fmt.Printf("\nextrapolated CPI at %dW: %.3f\n", target, predicted)

	cfg := system.DefaultConfig(target, 64, p)
	cfg.MeasureTxns = 2000
	m, err := system.Run(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	errPct := 100 * math.Abs(predicted-m.CPI) / m.CPI
	fmt.Printf("simulated CPI at %dW:    %.3f  (extrapolation error %.1f%%)\n",
		target, m.CPI, errPct)
	if errPct > 15 {
		log.Fatalf("extrapolation error %.1f%% exceeds 15%% — pivot method failed", errPct)
	}
	fmt.Println("\nthe pivot-point method predicted the out-of-range configuration;")
	fmt.Printf("a %dW simulation stands in for %dW and beyond.\n", minimal, target)
}

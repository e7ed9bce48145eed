// Package experiment holds the paper's evaluation settings and turns
// campaign results into its tables and figures: DefaultSpec describes
// the ≥90%-utilization tuned warehouse × processor sweep (Table 1), the
// figure and table assemblers read the campaign.Result it produces
// (Sections 4-6).
//
// Sweeps themselves run through the campaign package: campaign.Spec
// describes one, campaign.Run executes it on the shared worker pool and
// campaign.Result holds it.
package experiment

import (
	"odbscale/internal/campaign"
	"odbscale/internal/system"
)

// DefaultSpec returns the paper-equivalent campaign on the Xeon
// platform over the given warehouse and processor axes: auto-tuned
// clients in [8, 64] reaching 90% utilization, warm-started probes.
// Set CheckpointPath, Resume and Observer on the result before handing
// it to campaign.Run.
func DefaultSpec(ws, ps []int) campaign.Spec {
	return campaign.Spec{
		Machine:     system.XeonQuad(),
		Tuning:      system.DefaultTuning(),
		Seed:        1,
		WarmupTxns:  600,
		MeasureTxns: 2400,
		TuneTxns:    1200,
		TargetUtil:  0.90,
		MinClients:  8,
		MaxClients:  64,
		AutoTune:    true,
		Warehouses:  append([]int(nil), ws...),
		Processors:  append([]int(nil), ps...),
	}
}

// StandardWarehouses is the sweep used for the paper's figures; the
// paper's measured range is 10 to 800 with the I/O-bound 1200 point shown
// only in Figure 2.
var StandardWarehouses = []int{10, 25, 50, 100, 150, 200, 300, 400, 500, 650, 800}

// StandardProcessors are the paper's three processor configurations.
var StandardProcessors = []int{1, 2, 4}

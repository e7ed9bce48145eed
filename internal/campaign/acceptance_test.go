package campaign

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"odbscale/internal/system"
)

// acceptanceSpec is the paper's full campaign — the standard warehouse
// axis times {1, 2, 4} processors with the ≥90% client tuner — shrunk to
// unit-test transaction counts.
func acceptanceSpec(path string) Spec {
	tun := system.DefaultTuning()
	tun.PrefillSampleTxns = 250
	return Spec{
		Machine:        system.XeonQuad(),
		Tuning:         tun,
		Seed:           1,
		WarmupTxns:     30,
		MeasureTxns:    60,
		TuneTxns:       40,
		TargetUtil:     0.90,
		MinClients:     8,
		MaxClients:     64,
		AutoTune:       true,
		Parallelism:    2,
		Warehouses:     []int{10, 25, 50, 100, 150, 200, 300, 400, 500, 650, 800},
		Processors:     []int{1, 2, 4},
		CheckpointPath: path,
	}
}

// TestFullCampaignFewerRunsAndResume is the acceptance check for the
// campaign runner, on the real simulator:
//
//  1. A full StandardWarehouses × {1,2,4} auto-tuned campaign is killed
//     partway (context cancellation after six completed points), then
//     re-run with Resume. The resumed run must restore exactly the
//     checkpointed points, execute only the incomplete ones, and never
//     re-simulate a recorded tuner probe.
//  2. The campaign (interrupted + resumed, so every executed run is
//     counted) must perform strictly fewer simulator runs than the seed
//     path — the same sweep with the cold-start search sweeps used
//     before the campaign runner (one campaign per warehouse count).
//
// Both counts come from the observer's event stream.
func TestFullCampaignFewerRunsAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	total := 11 * 3

	// Phase A: kill the campaign after six completed points.
	specA := acceptanceSpec(path)
	recA := &recorder{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	recA.onFinished = func(successes int) {
		if successes == 6 {
			cancel()
		}
	}
	specA.Observer = recA
	if _, err := Run(ctx, specA); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed campaign returned %v, want context.Canceled", err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("checkpoint unreadable after the kill: %v", err)
	}
	done := recA.successes()
	if len(cp.Points) != len(done) || len(done) >= total {
		t.Fatalf("checkpoint holds %d points, observer saw %d successes of %d total",
			len(cp.Points), len(done), total)
	}
	runsA := recA.summaries[0].Runs

	// Phase B: resume and finish. Only the complement may execute.
	specB := acceptanceSpec(path)
	specB.Resume = true
	recB := &recorder{}
	specB.Observer = recB
	res, err := Run(context.Background(), specB)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != total {
		t.Fatalf("resumed campaign finished %d points, want %d", len(res.Points), total)
	}
	resumed := recB.resumed()
	if len(resumed) != len(done) {
		t.Fatalf("resume restored %d points, checkpoint held %d", len(resumed), len(done))
	}
	for k := range resumed {
		if !done[k] {
			t.Fatalf("resume restored %+v, which phase A never completed", k)
		}
	}
	for k := range recB.successes() {
		if done[k] {
			t.Fatalf("resume re-executed completed point %+v", k)
		}
	}
	if res.Summary.PointsResumed != len(done) {
		t.Fatalf("summary resumed %d points, want %d", res.Summary.PointsResumed, len(done))
	}
	pA, pB := recA.executedProbes(), recB.executedProbes()
	for k := range pB {
		if pA[k] {
			t.Fatalf("tuner probe %+v simulated in both phases despite the checkpoint memo", k)
		}
	}
	for _, p := range specB.Processors {
		if s := res.Series(p); len(s) != len(specB.Warehouses) {
			t.Fatalf("Series(%d) has %d points, want %d", p, len(s), len(specB.Warehouses))
		}
	}
	runsB := res.Summary.Runs

	// The observer's own accounting must agree with the summary.
	recB.mu.Lock()
	obsRuns := 0
	for _, f := range recB.finished {
		if !f.Resumed {
			obsRuns++
		}
	}
	for _, p := range recB.probes {
		if !p.Cached {
			obsRuns++
		}
	}
	recB.mu.Unlock()
	if obsRuns != runsB {
		t.Fatalf("observer counted %d runs, summary says %d", obsRuns, runsB)
	}

	// Phase C: the seed path — the identical sweep through the legacy
	// cold-start search (every point's tuner climbs from MinClients, no
	// cross-point warm start), as sweeps ran before the campaign
	// runner existed: one single-warehouse campaign per W.
	pointsC, seedRuns := runCold(t, acceptanceSpec(""), func(s Spec) (*Result, error) {
		return Run(context.Background(), s)
	})

	newRuns := runsA + runsB // every simulator run the campaign executed, kill included
	t.Logf("campaign runs: %d (killed: %d + resumed: %d); seed path runs: %d",
		newRuns, runsA, runsB, seedRuns)
	if newRuns >= seedRuns {
		t.Fatalf("campaign executed %d runs, seed path %d — want strictly fewer", newRuns, seedRuns)
	}

	// Same experiment, same answers: the warm-started campaign must land
	// on the same measurements wherever it tuned to the same count.
	for k, m := range pointsC {
		got, ok := res.Points[k]
		if !ok {
			t.Fatalf("campaign missing point %+v", k)
		}
		if got.Clients == m.Clients && got.TPS != m.TPS {
			t.Fatalf("point %+v: same clients (%d) but TPS %v vs %v — determinism broken",
				k, got.Clients, got.TPS, m.TPS)
		}
	}
}

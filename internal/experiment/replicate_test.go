package experiment

import (
	"context"
	"errors"
	"strings"
	"testing"

	"odbscale/internal/system"
)

func TestReplicateSpread(t *testing.T) {
	cfg := system.DefaultConfig(40, 12, 2)
	cfg.WarmupTxns = 150
	cfg.MeasureTxns = 400
	r, err := Replicate(context.Background(), cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 4 {
		t.Fatalf("replicas = %d", len(r.Runs))
	}
	// Different seeds must differ, but only by noise: the CI should be a
	// small fraction of the mean for a frequent metric.
	if r.TPS.StdDev == 0 {
		t.Fatal("replicas identical across seeds")
	}
	if r.TPSCI() > 0.1*r.TPS.Mean {
		t.Fatalf("TPS spread too large: %v ± %v", r.TPS.Mean, r.TPSCI())
	}
	if r.CPICI() > 0.1*r.CPI.Mean || r.MPICI() > 0.15*r.MPI.Mean {
		t.Fatalf("CPI/MPI spread too large: %s", r)
	}
	if !strings.Contains(r.String(), "n=4") {
		t.Fatalf("String = %q", r.String())
	}
}

func TestReplicateErrors(t *testing.T) {
	if _, err := Replicate(context.Background(), system.Config{}, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := Replicate(context.Background(), system.Config{}, 3); err == nil {
		t.Fatal("bad config accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := system.DefaultConfig(10, 8, 1)
	if _, err := Replicate(ctx, cfg, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replicate err = %v, want context.Canceled", err)
	}
}

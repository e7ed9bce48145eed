package experiment

import (
	"context"
	"fmt"

	"odbscale/internal/campaign"
	"odbscale/internal/stats"
	"odbscale/internal/system"
)

// Replication summarizes repeated measurements of one configuration
// under different seeds — the analogue of the paper's six-fold repeated
// EMON measurements, quantifying how much of any observed difference is
// run-to-run noise.
type Replication struct {
	Runs []system.Metrics

	TPS     stats.Summary
	CPI     stats.Summary
	MPI     stats.Summary
	IPX     stats.Summary
	CtxSw   stats.Summary
	BusTime stats.Summary
}

// CI95 returns the 95% confidence half-width of a metric's mean across
// the replicas.
func ci(xs []float64) float64 { return stats.CI95(xs) }

// TPSCI returns the 95% CI half-width of mean TPS.
func (r Replication) TPSCI() float64 { return ci(gather(r.Runs, tps)) }

// CPICI returns the 95% CI half-width of mean CPI.
func (r Replication) CPICI() float64 { return ci(gather(r.Runs, cpi)) }

// MPICI returns the 95% CI half-width of mean MPI.
func (r Replication) MPICI() float64 { return ci(gather(r.Runs, mpi)) }

func tps(m system.Metrics) float64 { return m.TPS }
func cpi(m system.Metrics) float64 { return m.CPI }
func mpi(m system.Metrics) float64 { return m.MPI }

func gather(ms []system.Metrics, f func(system.Metrics) float64) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = f(m)
	}
	return out
}

// Replicate runs one configuration n times with consecutive seeds and
// summarizes the spread. The configuration's own seed is the first. The
// n seeded runs are submitted together through the campaign worker pool
// and execute concurrently (each run is an isolated deterministic
// simulation, so the summary is identical to the serial one);
// cancelling ctx stops them.
func Replicate(ctx context.Context, cfg system.Config, n int) (Replication, error) {
	if n < 2 {
		return Replication{}, fmt.Errorf("experiment: need at least 2 replicas, got %d", n)
	}
	cfgs := make([]system.Config, n)
	for i := range cfgs {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		cfgs[i] = c
	}
	runs, err := campaign.RunAll(ctx, 0, cfgs)
	if err != nil {
		return Replication{}, fmt.Errorf("experiment: replicate: %w", err)
	}
	r := Replication{Runs: runs}
	r.TPS = stats.Summarize(gather(r.Runs, tps))
	r.CPI = stats.Summarize(gather(r.Runs, cpi))
	r.MPI = stats.Summarize(gather(r.Runs, mpi))
	r.IPX = stats.Summarize(gather(r.Runs, func(m system.Metrics) float64 { return m.IPX }))
	r.CtxSw = stats.Summarize(gather(r.Runs, func(m system.Metrics) float64 { return m.CtxSwitchPerTxn }))
	r.BusTime = stats.Summarize(gather(r.Runs, func(m system.Metrics) float64 { return m.BusTime }))
	return r, nil
}

// String renders the key spreads.
func (r Replication) String() string {
	return fmt.Sprintf("n=%d TPS=%.0f±%.0f CPI=%.3f±%.3f MPI=%.5f±%.5f",
		len(r.Runs), r.TPS.Mean, r.TPSCI(), r.CPI.Mean, r.CPICI(), r.MPI.Mean, r.MPICI())
}

// Package core implements the paper's primary contribution: the iron law
// of database performance and the piecewise-linear scaling methodology
// built on it.
//
// The classic iron law of processor performance, S = F / (PL × CPI), is
// adapted to transaction processing by letting the path length be the
// average instructions executed per transaction (IPX), giving, for a
// multiprocessor,
//
//	TPS = (P × F) / (IPX × CPI).
//
// Database throughput can thus only be improved by raising the clock or
// processor count, or by lowering IPX or CPI — and the paper's
// characterization shows how IPX and CPI move as the workload scales.
// The second half of the contribution is the observation that CPI(W) and
// MPI(W) are accurately described by two linear regions — a steep cached
// region and a shallow scaled region — whose intersection, the pivot
// point, is the smallest configuration that behaves like a scaled setup.
package core

import (
	"errors"
	"fmt"
	"math"

	"odbscale/internal/model"
	"odbscale/internal/stats"
)

// IronLaw holds the terms of the database iron law.
type IronLaw struct {
	Processors  int
	FrequencyHz float64
	IPX         float64 // instructions per transaction
	CPI         float64 // cycles per instruction
	Utilization float64 // fraction of CPU cycles doing work (1 for ideal)
}

// TPS evaluates the iron law: TPS = util × P × F / (IPX × CPI).
func (l IronLaw) TPS() float64 {
	if l.IPX <= 0 || l.CPI <= 0 {
		return 0
	}
	u := l.Utilization
	if u <= 0 {
		u = 1 // unset utilization: assume fully busy processors
	}
	return u * float64(l.Processors) * l.FrequencyHz / (l.IPX * l.CPI)
}

func (l IronLaw) String() string {
	return fmt.Sprintf("TPS = %.0f  (P=%d F=%.2gGHz IPX=%.3gM CPI=%.3g util=%.2f)",
		l.TPS(), l.Processors, l.FrequencyHz/1e9, l.IPX/1e6, l.CPI, l.Utilization)
}

// Verify checks that a measured throughput satisfies the iron law within
// the given relative tolerance, returning a descriptive error otherwise.
func (l IronLaw) Verify(measuredTPS, tolerance float64) error {
	predicted := l.TPS()
	if predicted <= 0 {
		return errors.New("core: iron law terms incomplete")
	}
	rel := math.Abs(measuredTPS-predicted) / predicted
	if rel > tolerance {
		return fmt.Errorf("core: measured %.1f TPS deviates %.1f%% from iron law %.1f",
			measuredTPS, rel*100, predicted)
	}
	return nil
}

// Speedup returns the throughput ratio of two iron-law operating points
// (for example, the same workload on more processors).
func Speedup(after, before IronLaw) float64 {
	b := before.TPS()
	if b <= 0 {
		return 0
	}
	return after.TPS() / b
}

// ScalingFit is the two-region characterization of one metric over the
// warehouse axis.
type ScalingFit struct {
	Metric string
	Fit    model.Piecewise
}

// Pivot returns the metric's pivot point in warehouses.
func (s ScalingFit) Pivot() float64 { return s.Fit.Pivot }

// Characterization bundles the CPI and MPI scaling fits of one processor
// configuration, as in the paper's Figures 17/18 and Table 5.
type Characterization struct {
	Processors int
	CPI        ScalingFit
	MPI        ScalingFit
}

// Characterize fits the two-region model to CPI(W) and MPI(W) series.
// Series must be sorted by warehouses.
func Characterize(p int, cpi, mpi stats.Series) (Characterization, error) {
	cpiFit, err := model.FitPiecewise(cpi.Xs(), cpi.Ys())
	if err != nil {
		return Characterization{}, fmt.Errorf("core: CPI fit: %w", err)
	}
	mpiFit, err := model.FitPiecewise(mpi.Xs(), mpi.Ys())
	if err != nil {
		return Characterization{}, fmt.Errorf("core: MPI fit: %w", err)
	}
	return Characterization{
		Processors: p,
		CPI:        ScalingFit{Metric: "CPI", Fit: cpiFit},
		MPI:        ScalingFit{Metric: "MPI", Fit: mpiFit},
	}, nil
}

// RepresentativePivot returns the pivot the paper recommends basing
// representative configurations on: the CPI pivot, because CPI accounts
// for the latency effects (growing bus-transaction time) that MPI cannot
// see, making its transition the more conservative of the two.
func (c Characterization) RepresentativePivot() float64 { return c.CPI.Pivot() }

// MinimalConfiguration returns the smallest warehouse count that exhibits
// scaled-setup behaviour: the representative pivot padded by the given
// safety margin (for example 0.25 for 25%), rounded up to a whole
// warehouse.
func (c Characterization) MinimalConfiguration(margin float64) int {
	w := c.RepresentativePivot() * (1 + margin)
	return int(math.Ceil(w))
}

// Extrapolate predicts the metric at warehouse count w using the
// scaled-region line — the paper's method for projecting configurations
// too large to measure or simulate.
func (s ScalingFit) Extrapolate(w float64) float64 { return s.Fit.Extrapolate(w) }

// ExtrapolationError reports the mean absolute percentage error of
// scaled-region extrapolation against observed points at or beyond the
// pivot.
func (s ScalingFit) ExtrapolationError(observed stats.Series) float64 {
	var xs, ys []float64
	for _, pt := range observed.Points {
		if pt.X >= s.Fit.Pivot {
			xs = append(xs, pt.X)
			ys = append(ys, pt.Y)
		}
	}
	return model.MAPE(s.Fit.Extrapolate, xs, ys)
}

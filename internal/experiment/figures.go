package experiment

import (
	"fmt"

	"odbscale/internal/campaign"
	"odbscale/internal/core"
	"odbscale/internal/stats"
	"odbscale/internal/system"
)

// MaxBalancedWarehouses is the largest configuration the paper keeps in
// its analysis: beyond it the system is I/O bound and CPU utilization
// cannot be held above 90% (their 1200-warehouse point appears only in
// Figure 2).
const MaxBalancedWarehouses = 800

// balanced filters a sweep to the ≤800-warehouse analysis range.
func balanced(ms []system.Metrics) []system.Metrics {
	out := ms[:0:0]
	for _, m := range ms {
		if m.Warehouses <= MaxBalancedWarehouses {
			out = append(out, m)
		}
	}
	return out
}

// series extracts one metric across a sweep.
func series(name string, ms []system.Metrics, f func(system.Metrics) float64) stats.Series {
	s := stats.Series{Name: name}
	for _, m := range ms {
		s.Add(float64(m.Warehouses), f(m))
	}
	s.Sort()
	return s
}

// perP builds one series per processor configuration.
func perP(res *campaign.Result, metric string, f func(system.Metrics) float64, includeIOBound bool) []stats.Series {
	var out []stats.Series
	for _, p := range res.Processors {
		ms := res.Series(p)
		if !includeIOBound {
			ms = balanced(ms)
		}
		out = append(out, series(fmt.Sprintf("%s %dP", metric, p), ms, f))
	}
	return out
}

// Table1 reports the tuned client counts per configuration — the paper's
// Table 1, "Number of Clients at 90% CPU Utilization".
func Table1(res *campaign.Result) stats.Table {
	t := stats.Table{Title: "Table 1: Number of Clients at 90% CPU Utilization",
		Header: []string{"Warehouses"}}
	for _, p := range res.Processors {
		t.Header = append(t.Header, fmt.Sprintf("%dP", p))
	}
	for _, w := range res.Warehouses {
		if w > MaxBalancedWarehouses {
			continue
		}
		row := []string{fmt.Sprintf("%d", w)}
		for _, p := range res.Processors {
			m, _ := res.Metrics(w, p)
			row = append(row, fmt.Sprintf("%d", m.Clients))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure2 returns TPS versus warehouses per processor count, including
// any I/O-bound points in the sweep.
func Figure2(res *campaign.Result) []stats.Series {
	return perP(res, "TPS", func(m system.Metrics) float64 { return m.TPS }, true)
}

// Figure3 returns the CPU utilization split between OS and user code for
// the largest processor configuration.
func Figure3(res *campaign.Result) []stats.Series {
	p := res.Processors[len(res.Processors)-1]
	ms := balanced(res.Series(p))
	osShare := series("OS share", ms, func(m system.Metrics) float64 { return m.CPUUtil * m.OSShare })
	userShare := series("User share", ms, func(m system.Metrics) float64 { return m.CPUUtil * (1 - m.OSShare) })
	return []stats.Series{userShare, osShare}
}

// Figure4 returns total IPX (instructions per transaction) per P.
func Figure4(res *campaign.Result) []stats.Series {
	return perP(res, "IPX", func(m system.Metrics) float64 { return m.IPX }, false)
}

// Figure5 returns user-space IPX per P (flat in the paper).
func Figure5(res *campaign.Result) []stats.Series {
	return perP(res, "UserIPX", func(m system.Metrics) float64 { return m.UserIPX }, false)
}

// Figure6 returns OS-space IPX per P (rising with I/O).
func Figure6(res *campaign.Result) []stats.Series {
	return perP(res, "OSIPX", func(m system.Metrics) float64 { return m.OSIPX }, false)
}

// Figure7 returns disk traffic per transaction in KB: reads, data writes
// and log writes, for the largest processor configuration.
func Figure7(res *campaign.Result) []stats.Series {
	p := res.Processors[len(res.Processors)-1]
	ms := balanced(res.Series(p))
	return []stats.Series{
		series("Read KB/txn", ms, func(m system.Metrics) float64 { return m.ReadKBPerTxn }),
		series("Write KB/txn", ms, func(m system.Metrics) float64 { return m.WriteKBPerTxn }),
		series("Log KB/txn", ms, func(m system.Metrics) float64 { return m.LogKBPerTxn }),
	}
}

// Figure8 returns context switches per transaction per P.
func Figure8(res *campaign.Result) []stats.Series {
	return perP(res, "CtxSw", func(m system.Metrics) float64 { return m.CtxSwitchPerTxn }, false)
}

// Figure9 returns overall CPI per P.
func Figure9(res *campaign.Result) []stats.Series {
	return perP(res, "CPI", func(m system.Metrics) float64 { return m.CPI }, false)
}

// Figure10 returns user-space CPI per P.
func Figure10(res *campaign.Result) []stats.Series {
	return perP(res, "UserCPI", func(m system.Metrics) float64 { return m.UserCPI }, false)
}

// Figure11 returns OS-space CPI per P.
func Figure11(res *campaign.Result) []stats.Series {
	return perP(res, "OSCPI", func(m system.Metrics) float64 { return m.OSCPI }, false)
}

// Figure12 returns the CPI breakdown by microarchitectural component for
// the largest processor configuration, one row per warehouse count.
func Figure12(res *campaign.Result) stats.Table {
	p := res.Processors[len(res.Processors)-1]
	t := stats.Table{
		Title:  fmt.Sprintf("Figure 12: CPI breakdown by event (%dP)", p),
		Header: []string{"Warehouses", "Inst", "Branch", "TLB", "TC", "L2", "L3", "Other", "Total", "L3 share"},
	}
	for _, m := range balanced(res.Series(p)) {
		b := m.Breakdown
		t.AddRow(fmt.Sprintf("%d", m.Warehouses),
			stats.F(b.Inst, 3), stats.F(b.Branch, 3), stats.F(b.TLB, 3), stats.F(b.TC, 3),
			stats.F(b.L2, 3), stats.F(b.L3, 3), stats.F(b.Other, 3), stats.F(b.Total(), 3),
			stats.F(b.L3/b.Total(), 3))
	}
	return t
}

// Figure13 returns overall L3 MPI per P.
func Figure13(res *campaign.Result) []stats.Series {
	return perP(res, "MPI", func(m system.Metrics) float64 { return m.MPI }, false)
}

// Figure14 returns user-space MPI per P.
func Figure14(res *campaign.Result) []stats.Series {
	return perP(res, "UserMPI", func(m system.Metrics) float64 { return m.UserMPI }, false)
}

// Figure15 returns OS-space MPI per P.
func Figure15(res *campaign.Result) []stats.Series {
	return perP(res, "OSMPI", func(m system.Metrics) float64 { return m.OSMPI }, false)
}

// Figure16 returns the mean IOQ bus-transaction time per P.
func Figure16(res *campaign.Result) []stats.Series {
	return perP(res, "BusTime", func(m system.Metrics) float64 { return m.BusTime }, false)
}

// Characterize fits the two-region scaling model for one processor
// configuration of a campaign (Figures 17 and 18).
func Characterize(res *campaign.Result, p int) (core.Characterization, error) {
	ms := balanced(res.Series(p))
	cpi := series("CPI", ms, func(m system.Metrics) float64 { return m.CPI })
	mpi := series("MPI", ms, func(m system.Metrics) float64 { return m.MPI })
	return core.Characterize(p, cpi, mpi)
}

// Table5 reports the CPI and MPI pivot points for every processor
// configuration.
func Table5(res *campaign.Result) (stats.Table, error) {
	t := stats.Table{Title: "Table 5: Number of Warehouses for Pivot Points",
		Header: []string{"Processors", "CPI", "MPI"}}
	for _, p := range res.Processors {
		c, err := Characterize(res, p)
		if err != nil {
			return t, err
		}
		t.AddRow(fmt.Sprintf("%dP", p), stats.F(c.CPI.Pivot(), 0), stats.F(c.MPI.Pivot(), 0))
	}
	return t, nil
}

// Figure19 returns the CPI series and its pivot for processor
// configuration p of the Itanium2 validation campaign (Section 6.3):
// a DefaultSpec sweep with Machine set to system.Itanium2Quad().
func Figure19(res *campaign.Result, p int) (stats.Series, core.Characterization, error) {
	cpi := series(fmt.Sprintf("Itanium2 CPI %dP", p), balanced(res.Series(p)), func(m system.Metrics) float64 { return m.CPI })
	c, err := Characterize(res, p)
	return cpi, c, err
}

// RenderSeries formats figure series as an aligned table keyed by
// warehouse count.
func RenderSeries(title string, series []stats.Series, decimals int) string {
	t := stats.Table{Title: title, Header: []string{"Warehouses"}}
	for _, s := range series {
		t.Header = append(t.Header, s.Name)
	}
	if len(series) == 0 {
		return t.String()
	}
	for _, pt := range series[0].Points {
		row := []string{fmt.Sprintf("%.0f", pt.X)}
		for _, s := range series {
			if y, ok := s.At(pt.X); ok {
				row = append(row, stats.F(y, decimals))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t.String()
}

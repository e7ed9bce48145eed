package experiment

import (
	"fmt"
	"math"
	"strings"

	"odbscale/internal/campaign"
	"odbscale/internal/core"
	"odbscale/internal/stats"
	"odbscale/internal/system"
)

// Claim is one of the paper's shape claims evaluated over campaign
// results. A row with Expect false is a known divergence: a change that
// makes it hold shows up as an unexpected row.
type Claim struct {
	ID     string // the paper's table or figure, e.g. "Fig13-P"
	Paper  string // the paper's statement and the threshold it is read as
	Ours   string // the measured values the verdict rests on
	Holds  bool
	Expect bool
}

// input hands a row its data. A lookup that finds nothing marks the
// row's input missing and returns a zero stand-in so the row can
// finish; Claims then leaves the row out.
type input struct {
	xeon, itanium *campaign.Result
	missing       bool
}

// sweep returns p's balanced (≤800W) points, at least two of them.
func (in *input) sweep(res *campaign.Result, p int) []system.Metrics {
	if ms := balanced(res.Series(p)); len(ms) >= 2 {
		return ms
	}
	in.missing = true
	return make([]system.Metrics, 2)
}

func (in *input) at(res *campaign.Result, w, p int) system.Metrics {
	m, ok := res.Metrics(w, p)
	in.missing = in.missing || !ok
	return m
}

func (in *input) fit(res *campaign.Result, p int) core.Characterization {
	c, err := Characterize(res, p)
	in.missing = in.missing || err != nil
	return c
}

// everyP applies f to the Xeon sweep of each of ps (nil means every
// processor configuration), joining what it reports.
func (in *input) everyP(ps []int, f func(p int, ms []system.Metrics) (string, bool)) (string, bool) {
	if ps == nil {
		ps = in.xeon.Processors
	}
	holds := true
	var ours []string
	for _, p := range ps {
		s, h := f(p, in.sweep(in.xeon, p))
		ours, holds = append(ours, s), holds && h
	}
	return strings.Join(ours, ", "), holds
}

type claimRow struct {
	id, paper string
	expect    bool
	eval      func(*input) (ours string, holds bool)
}

// Thresholds come from the paper's statements. Where the paper gives no
// number, the row states the one used and its source: the bound of the
// system shape test the row restates, examples/pivotstudy's 15%
// extrapolation bound, or 10% for "flat" and "near one" where neither
// gives a number.
var claimRows = []claimRow{
	{"Table1", "Tuned clients grow with W at 2P and 4P (to 64 at 800W/4P in the paper)", true, tuned(ends([]int{2, 4}, clients, 0, less))},
	{"Table1-1P", "Tuned 1P clients grow with W (8 -> 13 in the paper)", false, tuned(ends([]int{1}, clients, 0, less))},
	{"Fig2", "TPS falls with W at every P and grows with P at every W", true, tpsShape},
	{"Fig3", "The OS share of CPU (%) grows with W (4P)", true, ends([]int{4}, osShare, 1, less)},
	{"Fig3-10W", "The OS share of CPU is below 10% at 10W (4P)", false, value("%.1f%% at 10W", func(in *input) float64 { return osShare(in.at(in.xeon, 10, 4)) }, func(v float64) bool { return v < 10 })},
	{"Fig4", "IPX grows with W at every P", true, ends(nil, func(m system.Metrics) float64 { return m.IPX }, 0, less)},
	{"Fig5", "User IPX is flat in W (within 7% from the smallest to the largest W at every P: the shape test's bound)", true, ends(nil, func(m system.Metrics) float64 { return m.UserIPX }, 0, func(a, b float64) bool { return math.Abs(b/a-1) <= 0.07 })},
	{"Fig6", "OS IPX grows with W at every P", true, ends(nil, func(m system.Metrics) float64 { return m.OSIPX }, 0, less)},
	{"Fig7-cached", "Reads are ~0 below ~25W (<= 0.5 KB/txn with buffer hits >= 0.999 at 10W: the shape test's bounds; 4P)", true, func(in *input) (string, bool) {
		m := in.at(in.xeon, 10, 4)
		return fmt.Sprintf("%.2f KB, buffer hits %.4f at 10W", m.ReadKBPerTxn, m.BufferHitRatio), m.ReadKBPerTxn <= 0.5 && m.BufferHitRatio >= 0.999
	}},
	{"Fig7-reads", "Reads rise with W (to >= 5 KB/txn at the largest W: the shape test's bound; 4P)", true, ends([]int{4}, func(m system.Metrics) float64 { return m.ReadKBPerTxn }, 2, func(_, b float64) bool { return b >= 5 })},
	{"Fig7-log", "The log writes ~6 KB per transaction (4-8 KB at every W; 4P)", true, func(in *input) (string, bool) {
		lo, hi := extent(in.sweep(in.xeon, 4), func(m system.Metrics) float64 { return m.LogKBPerTxn })
		return fmt.Sprintf("%.2f-%.2f KB", lo, hi), lo >= 4 && hi <= 8
	}},
	{"Fig7-writes", "Data writebacks (KB/txn) grow with W (4P)", true, ends([]int{4}, func(m system.Metrics) float64 { return m.WriteKBPerTxn }, 2, less)},
	{"Fig7-floor", "Writes at small W are the log alone (data writebacks <= 0.5 KB/txn at 10W; 4P)", false, value("%.2f KB at 10W", func(in *input) float64 { return in.at(in.xeon, 10, 4).WriteKBPerTxn }, func(v float64) bool { return v <= 0.5 })},
	{"Fig8", "Context switches are high at small W, dip, then grow with I/O; busy waits fall with W (4P)", true, ctxSwitchShape},
	{"Fig9", "CPI rises with W (>= 1.2x from the smallest to the largest W at every P: the shape test's bound)", true, ends(nil, func(m system.Metrics) float64 { return m.CPI }, 2, growsBy(1.2))},
	{"Fig10", "User CPI rises with W at every P, tracking CPI", true, ends(nil, func(m system.Metrics) float64 { return m.UserCPI }, 2, less)},
	{"Fig11", "OS CPI is highest at small W and falls with W (4P)", false, peaksFirst([]int{4}, func(m system.Metrics) float64 { return m.OSCPI })},
	{"Table4", "The Table 4 breakdown total equals CPI (total/CPI within 2% at every point: the shape test's bound)", true, func(in *input) (string, bool) {
		return in.everyP(nil, func(p int, ms []system.Metrics) (string, bool) {
			lo, hi := extent(ms, func(m system.Metrics) float64 { return m.Breakdown.Total() / m.CPI })
			return fmt.Sprintf("%dP %.4f-%.4f", p, lo, hi), lo >= 0.98 && hi <= 1.02
		})
	}},
	{"Fig12-L3", "L3 misses are ~60% of CPI near 100-150W (50-70% at 100-150W; 4P)", true, l3Share},
	{"Fig12-flat", "Inst is constant and Branch flat (within 15% + 0.05 of its smallest-W value: the shape test's bound; 4P)", true, computeFlat},
	{"Fig13-grow", "MPI rises with W (>= 1.5x from the smallest to the largest W at every P: the shape test's bound)", true, ends(nil, func(m system.Metrics) float64 { return m.MPI }, 5, growsBy(1.5))},
	{"Fig13-knee", "MPI rises sharply to ~100W, then flattens (a 4P MPI pivot in 50-200W)", true, value("%.0fW", func(in *input) float64 { return in.fit(in.xeon, 4).MPI.Pivot() }, func(v float64) bool { return v >= 50 && v <= 200 })},
	{"Fig13-P", "MPI is independent of P (4P/1P within 10% at the largest W)", true, mpiRatio(0)},
	{"Fig13-P10", "MPI is independent of P at small W too (4P/1P within 10% at 10W)", false, mpiRatio(10)},
	{"Fig14", "User MPI rises with W at every P, tracking MPI", true, ends(nil, func(m system.Metrics) float64 { return m.UserMPI }, 5, less)},
	{"Fig15", "OS MPI is highest at small W and falls with W (every P)", false, peaksFirst(nil, func(m system.Metrics) float64 { return m.OSMPI })},
	{"Fig16", "IOQ bus time is flat at 1P, rises at 4P (1P within 10% and 4P up > 10% across W; 4P above 1P)", true, busShape},
	{"Fig17-extrap", "The 4P CPI scaled-region line, extrapolated, predicts the 1200W point (within 15%: examples/pivotstudy)", true, extrapolation},
	{"Table5", "CPI/MPI pivots lie in 102-147W at every P", false, pivots(func(cpi, mpi float64) bool {
		return cpi >= 102 && cpi <= 147 && mpi >= 102 && mpi <= 147
	})},
	{"Fig19-10W", "Itanium2's larger L3 lowers CPI at small W (10W, 4P)", true, vsXeon(3, func(in *input, r *campaign.Result) float64 { return in.at(r, 10, 4).CPI }, less)},
	{"Fig19-cached", "Itanium2's cached region is shallower (4P CPI cached-region slope per W below the Xeon's)", true, vsXeon(4, func(in *input, r *campaign.Result) float64 { return in.fit(r, 4).CPI.Fit.Cached.Slope }, less)},
	{"Fig19-pivot", "Itanium2's CPI pivot (~118W) stays near the Xeon's (within 30W, as the paper's CPI and MPI pivots agree)", false, vsXeon(0, func(in *input, r *campaign.Result) float64 { return in.fit(r, 4).CPI.Pivot() }, func(i, x float64) bool { return math.Abs(i-x) <= 30 })},
}

// Claims evaluates the paper's claims over a Xeon campaign and, when
// itanium is non-nil, Figure 19's Itanium2 campaign at 4P. A row whose
// input the results lack (an axis point, tuned clients, the Itanium2
// campaign) is left out, never reported as holding.
func Claims(xeon, itanium *campaign.Result) []Claim {
	if xeon == nil {
		return nil
	}
	if itanium == nil {
		itanium = &campaign.Result{} // every lookup misses
	}
	var out []Claim
	for _, r := range claimRows {
		in := &input{xeon: xeon, itanium: itanium}
		ours, holds := r.eval(in)
		if !in.missing {
			out = append(out, Claim{ID: r.id, Paper: r.paper, Ours: ours, Holds: holds, Expect: r.expect})
		}
	}
	return out
}

// ClaimTable renders claims as an aligned table.
func ClaimTable(cs []Claim) stats.Table {
	t := stats.Table{Title: "Claims: the paper's statements checked against this run",
		Header: []string{"ID", "Paper", "Ours", "Holds", "Expected"}}
	yes := map[bool]string{true: "yes", false: "no"}
	for _, c := range cs {
		t.AddRow(c.ID, c.Paper, c.Ours, yes[c.Holds], yes[c.Expect])
	}
	return t
}

// osShare is Figure 3's OS share of CPU time, in percent.
func osShare(m system.Metrics) float64 { return 100 * m.CPUUtil * m.OSShare }

func extent(ms []system.Metrics, f func(system.Metrics) float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, m := range ms {
		lo, hi = math.Min(lo, f(m)), math.Max(hi, f(m))
	}
	return lo, hi
}

// ends builds a row over f at the smallest and largest W at each of ps.
func ends(ps []int, f func(system.Metrics) float64, decimals int, ok func(first, last float64) bool) func(*input) (string, bool) {
	return func(in *input) (string, bool) {
		return in.everyP(ps, func(p int, ms []system.Metrics) (string, bool) {
			a, b := f(ms[0]), f(ms[len(ms)-1])
			return fmt.Sprintf("%dP %s -> %s", p, stats.F(a, decimals), stats.F(b, decimals)), ok(a, b)
		})
	}
}

// growsBy holds when the last value exceeds factor × the first.
func growsBy(factor float64) func(a, b float64) bool {
	return func(a, b float64) bool { return b > factor*a }
}

// peaksFirst builds a row that holds when f peaks at the smallest
// balanced W and ends below it, at each of ps.
func peaksFirst(ps []int, f func(system.Metrics) float64) func(*input) (string, bool) {
	return func(in *input) (string, bool) {
		return in.everyP(ps, func(p int, ms []system.Metrics) (string, bool) {
			peak, a, b := ms[0], ms[0], ms[len(ms)-1]
			for _, m := range ms {
				if f(m) > f(peak) {
					peak = m
				}
			}
			return fmt.Sprintf("%dP peak at %dW, %dW %+.1f%% vs %dW", p, peak.Warehouses, a.Warehouses,
				100*(f(a)/f(b)-1), b.Warehouses), peak.Warehouses == a.Warehouses && f(b) < f(a)
		})
	}
}

func clients(m system.Metrics) float64 { return float64(m.Clients) }

// tuned leaves a row out unless the tuner chose the campaign's clients.
func tuned(eval func(*input) (string, bool)) func(*input) (string, bool) {
	return func(in *input) (string, bool) {
		in.missing = in.missing || !in.xeon.Tuned
		return eval(in)
	}
}

func tpsShape(in *input) (string, bool) {
	var prev []system.Metrics
	return in.everyP(nil, func(p int, ms []system.Metrics) (string, bool) {
		holds := true
		for j, m := range ms {
			holds = holds && (j == 0 || m.TPS < ms[j-1].TPS) && (j >= len(prev) || m.TPS > prev[j].TPS)
		}
		prev = ms
		return fmt.Sprintf("%dP %s -> %s", p, stats.F(ms[0].TPS, 0), stats.F(ms[len(ms)-1].TPS, 0)), holds
	})
}

// ctxSwitchShape holds when Figure 8's minimum lies strictly inside the
// sweep, below both ends.
func ctxSwitchShape(in *input) (string, bool) {
	ms := in.sweep(in.xeon, 4)
	a, b, dip := ms[0], ms[len(ms)-1], ms[0]
	for _, m := range ms {
		if m.CtxSwitchPerTxn < dip.CtxSwitchPerTxn {
			dip = m
		}
	}
	holds := a.CtxSwitchPerTxn > dip.CtxSwitchPerTxn && b.CtxSwitchPerTxn > dip.CtxSwitchPerTxn && a.BusyWaitsPerTxn > b.BusyWaitsPerTxn
	return fmt.Sprintf("%.2f at %dW, dip %.2f at %dW, %.2f at %dW", a.CtxSwitchPerTxn, a.Warehouses,
		dip.CtxSwitchPerTxn, dip.Warehouses, b.CtxSwitchPerTxn, b.Warehouses), holds
}

func l3Share(in *input) (string, bool) {
	holds := true
	var ours []string
	for _, m := range in.sweep(in.xeon, 4) {
		if m.Warehouses >= 100 && m.Warehouses <= 150 {
			s := m.Breakdown.L3 / m.Breakdown.Total()
			holds = holds && s >= 0.5 && s <= 0.7
			ours = append(ours, fmt.Sprintf("%.3f at %dW", s, m.Warehouses))
		}
	}
	in.missing = in.missing || ours == nil
	return strings.Join(ours, ", "), holds
}

func computeFlat(in *input) (string, bool) {
	ms := in.sweep(in.xeon, 4)
	b0, tol := ms[0].Breakdown.Branch, 0.15*ms[0].Breakdown.Branch+0.05
	ilo, ihi := extent(ms, func(m system.Metrics) float64 { return m.Breakdown.Inst })
	lo, hi := extent(ms, func(m system.Metrics) float64 { return m.Breakdown.Branch })
	return fmt.Sprintf("Inst %.3f-%.3f, Branch %.3f-%.3f", ilo, ihi, lo, hi), stats.Close(ilo, ihi) && lo >= b0-tol && hi <= b0+tol
}

// mpiRatio builds the 4P/1P MPI ratio row at w, 0 meaning the largest
// balanced W.
func mpiRatio(w int) func(*input) (string, bool) {
	return func(in *input) (string, bool) {
		at := w
		if ms := in.sweep(in.xeon, 4); at == 0 {
			at = ms[len(ms)-1].Warehouses
		}
		r := in.at(in.xeon, at, 4).MPI / in.at(in.xeon, at, 1).MPI
		return fmt.Sprintf("%.2f at %dW", r, at), math.Abs(r-1) <= 0.10
	}
}

func busShape(in *input) (string, bool) {
	one, four := in.sweep(in.xeon, 1), in.sweep(in.xeon, 4)
	a1, b1, a4, b4 := one[0].BusTime, one[len(one)-1].BusTime, four[0].BusTime, four[len(four)-1].BusTime
	return fmt.Sprintf("1P %.1f -> %.1f, 4P %.1f -> %.1f cycles", a1, b1, a4, b4),
		math.Abs(b1/a1-1) < 0.10 && b4 > 1.10*a4 && a4 > a1
}

func extrapolation(in *input) (string, bool) {
	c, m := in.fit(in.xeon, 4), in.at(in.xeon, 1200, 4)
	e := c.CPI.ExtrapolationError(stats.Series{Points: []stats.Point{{X: 1200, Y: m.CPI}}})
	return fmt.Sprintf("predicted %.3f, measured %.3f (%.1f%%)", c.CPI.Extrapolate(1200), m.CPI, 100*e), e <= 0.15
}

// pivots builds a row over every configuration's CPI and MPI pivots.
func pivots(ok func(cpi, mpi float64) bool) func(*input) (string, bool) {
	return func(in *input) (string, bool) {
		return in.everyP(nil, func(p int, _ []system.Metrics) (string, bool) {
			c := in.fit(in.xeon, p)
			return fmt.Sprintf("%dP %.0f/%.0f", p, c.CPI.Pivot(), c.MPI.Pivot()), ok(c.CPI.Pivot(), c.MPI.Pivot())
		})
	}
}

// value builds a row over one number.
func value(format string, f func(*input) float64, ok func(float64) bool) func(*input) (string, bool) {
	return func(in *input) (string, bool) {
		v := f(in)
		return fmt.Sprintf(format, v), ok(v)
	}
}

// vsXeon builds a Figure 19 row comparing f on the Itanium2 campaign
// with f on the Xeon campaign.
func vsXeon(decimals int, f func(*input, *campaign.Result) float64, ok func(it, xeon float64) bool) func(*input) (string, bool) {
	return func(in *input) (string, bool) {
		i, x := f(in, in.itanium), f(in, in.xeon)
		return fmt.Sprintf("%s vs Xeon %s", stats.F(i, decimals), stats.F(x, decimals)), ok(i, x)
	}
}

func less(a, b float64) bool { return a < b }

package experiment

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"odbscale/internal/campaign"
	"odbscale/internal/system"
)

// fastSpec returns a campaign small enough for unit tests.
func fastSpec(ws, ps []int) campaign.Spec {
	s := DefaultSpec(ws, ps)
	s.WarmupTxns = 200
	s.MeasureTxns = 500
	s.TuneTxns = 300
	s.MaxClients = 48
	return s
}

var testWs = []int{10, 40, 120, 360}

func run(t *testing.T, spec campaign.Spec) *campaign.Result {
	t.Helper()
	res, err := campaign.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// point measures one (w, p) configuration as a single-point campaign.
func point(t *testing.T, spec campaign.Spec, w, p int) system.Metrics {
	t.Helper()
	spec.Warehouses, spec.Processors = []int{w}, []int{p}
	m, ok := run(t, spec).Metrics(w, p)
	if !ok {
		t.Fatalf("campaign result lacks W=%d P=%d", w, p)
	}
	return m
}

// TestDefaultSpec pins the paper-equivalent campaign settings: they
// enter every checkpoint's fingerprint, so a change here would stop
// existing odbsweep and paperrepro checkpoints from resuming.
func TestDefaultSpec(t *testing.T) {
	ws, ps := []int{10, 25}, []int{1, 4}
	got := DefaultSpec(ws, ps)
	want := campaign.Spec{
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
		Warehouses:  []int{10, 25},
		Processors:  []int{1, 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DefaultSpec =\n%+v\nwant\n%+v", got, want)
	}
	ws[0], ps[0] = 99, 99
	if got.Warehouses[0] != 10 || got.Processors[0] != 1 {
		t.Fatal("DefaultSpec aliases the caller's axes")
	}
	if len(StandardWarehouses) < 8 || !reflect.DeepEqual(StandardProcessors, []int{1, 2, 4}) {
		t.Fatalf("standard axes W=%v P=%v", StandardWarehouses, StandardProcessors)
	}
}

func TestTunerReachesTarget(t *testing.T) {
	spec := fastSpec(nil, nil)
	m := point(t, spec, 40, 4)
	if m.Clients < spec.MinClients || m.Clients > spec.MaxClients {
		t.Fatalf("tuned clients = %d outside [%d, %d]", m.Clients, spec.MinClients, spec.MaxClients)
	}
	// The tuning measurement is shorter than the final one, so allow some
	// slack; a maxed-out client count means the point is I/O bound.
	if m.CPUUtil < spec.TargetUtil-0.10 && m.Clients < spec.MaxClients {
		t.Fatalf("tuned utilization = %v below target with %d clients", m.CPUUtil, m.Clients)
	}
}

func TestClientsGrowWithWarehousesAndProcessors(t *testing.T) {
	// The paper's Table 1 trend: more warehouses (more I/O) and more
	// processors require more clients to stay above 90% utilization.
	spec := fastSpec(nil, nil)
	c10p1 := point(t, spec, 10, 1).Clients
	c360p4 := point(t, spec, 360, 4).Clients
	if c360p4 <= c10p1 {
		t.Fatalf("clients did not grow: 10W/1P=%d vs 360W/4P=%d", c10p1, c360p4)
	}
}

func TestSweepOrdering(t *testing.T) {
	spec := fastSpec(testWs, []int{2})
	spec.AutoTune = false
	ms := run(t, spec).Series(2)
	if len(ms) != len(testWs) {
		t.Fatalf("sweep returned %d points", len(ms))
	}
	for i, m := range ms {
		if m.Warehouses != testWs[i] || m.Processors != 2 {
			t.Fatalf("point %d = W%d P%d", i, m.Warehouses, m.Processors)
		}
		if m.Txns == 0 {
			t.Fatalf("point %d measured no transactions", i)
		}
	}
}

func TestSweepDeterministic(t *testing.T) {
	spec := fastSpec(nil, nil)
	spec.AutoTune = false
	a := point(t, spec, 25, 2)
	b := point(t, spec, 25, 2)
	if a.TPS != b.TPS || a.CPI != b.CPI {
		t.Fatalf("same seed produced different results: %v vs %v", a, b)
	}
}

// TestClaims evaluates the claim table over one small heuristic-client
// campaign and a small Itanium2 campaign. Every row that restates one
// of the system package's shape tests must hold, and so must the
// Itanium2 row at 10W; rows whose input is missing must be left out.
func TestClaims(t *testing.T) {
	spec := DefaultSpec([]int{10, 50, 120, 360}, []int{1, 2, 4})
	spec.AutoTune = false
	spec.WarmupTxns, spec.MeasureTxns = 200, 600
	it := spec
	it.Machine, it.Processors = system.Itanium2Quad(), []int{4}
	xeon := run(t, spec)
	cs := Claims(xeon, run(t, it))
	got := map[string]Claim{}
	for _, c := range cs {
		got[c.ID] = c
	}
	for _, id := range []string{"Fig4", "Fig5", "Fig6", "Fig7-cached", "Fig7-reads", "Fig7-log", "Fig7-writes", "Fig8",
		"Fig9", "Table4", "Fig12-L3", "Fig12-flat", "Fig13-grow", "Fig13-P", "Fig16", "Fig19-10W"} {
		if c, ok := got[id]; !ok || !c.Holds {
			t.Errorf("%s does not hold (reported: %v): %s", id, ok, c.Ours)
		}
	}
	// Left out: the tuned rows, the 1200W extrapolation and, without an
	// Itanium2 campaign, Figure 19's rows.
	for _, id := range []string{"Table1", "Table1-1P", "Fig17-extrap"} {
		if _, ok := got[id]; ok {
			t.Errorf("%s reported without its input", id)
		}
	}
	for _, c := range Claims(xeon, nil) {
		if strings.HasPrefix(c.ID, "Fig19") {
			t.Errorf("%s reported without an Itanium2 campaign", c.ID)
		}
	}
	// A second campaign on another axis gets its own largest W.
	small := spec
	small.Warehouses, small.Processors = []int{10, 25}, []int{1, 4}
	reported := false
	for _, c := range Claims(run(t, small), nil) {
		reported = reported || c.ID == "Fig13-P" && strings.HasSuffix(c.Ours, "at 25W")
	}
	if !reported {
		t.Error("Fig13-P not reported at 25W on a second campaign")
	}
	if Claims(nil, nil) != nil {
		t.Error("claims reported without a campaign")
	}
	if t.Failed() {
		t.Logf("\n%s", ClaimTable(cs))
	}
}

func TestFiguresAssemble(t *testing.T) {
	spec := fastSpec(testWs, []int{1, 4})
	spec.AutoTune = false
	res := run(t, spec)

	t1 := Table1(res)
	if len(t1.Rows) != len(testWs) || len(t1.Header) != 3 {
		t.Fatalf("Table 1 shape: %d rows, %d cols", len(t1.Rows), len(t1.Header))
	}

	f2 := Figure2(res)
	if len(f2) != 2 || f2[0].Len() != len(testWs) {
		t.Fatalf("Figure 2 shape: %d series", len(f2))
	}

	f3 := Figure3(res)
	if len(f3) != 2 {
		t.Fatalf("Figure 3 series = %d", len(f3))
	}
	for i := range f3[0].Points {
		total := f3[0].Points[i].Y + f3[1].Points[i].Y
		if total > 1.001 {
			t.Fatalf("utilization split exceeds 1: %v", total)
		}
	}

	f7 := Figure7(res)
	if len(f7) != 3 {
		t.Fatalf("Figure 7 series = %d", len(f7))
	}

	f12 := Figure12(res)
	if len(f12.Rows) != len(testWs) {
		t.Fatalf("Figure 12 rows = %d", len(f12.Rows))
	}

	out := RenderSeries("Figure 2", f2, 1)
	if !strings.Contains(out, "Warehouses") || !strings.Contains(out, "TPS 1P") {
		t.Fatalf("render missing headers:\n%s", out)
	}
}

func TestCharacterizeAndTable5(t *testing.T) {
	spec := fastSpec(testWs, []int{4})
	spec.AutoTune = false
	res := run(t, spec)
	c, err := Characterize(res, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.CPI.Pivot() <= 0 || c.CPI.Pivot() > 400 {
		t.Fatalf("CPI pivot = %v", c.CPI.Pivot())
	}
	t5, err := Table5(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Rows) != 1 {
		t.Fatalf("Table 5 rows = %d", len(t5.Rows))
	}
}

func TestFigure19Itanium(t *testing.T) {
	spec := fastSpec(testWs, []int{2})
	spec.AutoTune = false
	itanium := spec
	itanium.Machine = system.Itanium2Quad()
	cpi, char, err := Figure19(run(t, itanium), 2)
	if err != nil {
		t.Fatal(err)
	}
	if cpi.Len() != len(testWs) {
		t.Fatalf("series length = %d", cpi.Len())
	}
	if char.CPI.Pivot() <= 0 {
		t.Fatalf("pivot = %v", char.CPI.Pivot())
	}
	// The larger L3 keeps small configurations cheap: CPI at the smallest
	// point must undercut the Xeon platform's.
	xeon := point(t, spec, testWs[0], 2)
	if cpi.Points[0].Y >= xeon.CPI {
		t.Fatalf("Itanium CPI %v >= Xeon %v at %dW", cpi.Points[0].Y, xeon.CPI, testWs[0])
	}
}

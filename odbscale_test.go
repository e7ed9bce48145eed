package odbscale_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"odbscale"
)

// TestPublicAPIQuickstart exercises the documented entry points end to
// end: run a configuration, check the iron law, fit a characterization.
func TestPublicAPIQuickstart(t *testing.T) {
	cfg := odbscale.DefaultConfig(40, 12, 2)
	cfg.WarmupTxns = 200
	cfg.MeasureTxns = 500
	m, err := odbscale.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	law := odbscale.IronLaw{
		Processors:  m.Processors,
		FrequencyHz: cfg.Machine.FreqHz,
		IPX:         m.IPX,
		CPI:         m.CPI,
		Utilization: m.CPUUtil,
	}
	if err := law.Verify(m.TPS, 0.02); err != nil {
		t.Fatal(err)
	}
}

// TestPublicCampaign drives the documented campaign surface: spec from
// the facade, checkpointing, progress and event-log observers, resume,
// and the campaign result the characterization reads.
func TestPublicCampaign(t *testing.T) {
	spec := odbscale.DefaultCampaignSpec([]int{10, 25}, []int{1})
	spec.AutoTune = false // heuristic clients keep the test quick
	spec.WarmupTxns = 100
	spec.MeasureTxns = 300
	spec.CheckpointPath = filepath.Join(t.TempDir(), "campaign.json")
	var progress, events bytes.Buffer
	spec.Observer = odbscale.CampaignObservers(
		odbscale.NewCampaignProgress(&progress, 2),
		odbscale.NewCampaignEventLog(&events),
	)
	res, err := odbscale.RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Runs != 2 || res.Summary.Points != 2 {
		t.Fatalf("summary = %+v, want 2 runs over 2 points", res.Summary)
	}
	if progress.Len() == 0 || events.Len() == 0 {
		t.Fatal("observers produced no output")
	}
	if ms := res.Series(1); len(ms) != 2 {
		t.Fatalf("campaign result has %d points", len(ms))
	}
	// The two-region fit needs at least four warehouse counts.
	if _, err := odbscale.CharacterizeCampaign(res, 1); err == nil {
		t.Fatal("a two-point campaign was characterized")
	}

	// A second run resumes every point from the checkpoint: zero runs.
	spec.Resume = true
	spec.Observer = nil
	res, err = odbscale.RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Runs != 0 || res.Summary.PointsResumed != 2 {
		t.Fatalf("resume summary = %+v, want everything restored", res.Summary)
	}
}

func TestPublicSentinelErrors(t *testing.T) {
	_, err := odbscale.Run(context.Background(), odbscale.Config{})
	if !errors.Is(err, odbscale.ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
	cfg := odbscale.DefaultConfig(10, 8, 1)
	cfg.MeasureTxns = 0
	if _, err := odbscale.Run(context.Background(), cfg); !errors.Is(err, odbscale.ErrNoTxns) {
		t.Fatalf("err = %v, want ErrNoTxns", err)
	}
}

func TestPublicPresets(t *testing.T) {
	x := odbscale.XeonQuad()
	i := odbscale.Itanium2Quad()
	if x.Geometry.L3Size >= i.Geometry.L3Size {
		t.Fatal("Itanium2 must have the larger L3")
	}
	if odbscale.HeuristicClients(800, 4) <= odbscale.HeuristicClients(10, 4) {
		t.Fatal("heuristic not increasing")
	}
	if len(odbscale.StandardWarehouses) < 8 || len(odbscale.StandardProcessors) != 3 {
		t.Fatal("standard axes wrong")
	}
}

func TestPublicCharacterize(t *testing.T) {
	var cpi, mpi odbscale.Series
	for _, w := range []float64{10, 50, 100, 200, 400, 800} {
		// Two-region synthetic data with a pivot near 120.
		if w <= 120 {
			cpi.Add(w, 2+0.02*w)
			mpi.Add(w, 0.004+0.00005*w)
		} else {
			cpi.Add(w, 2+0.02*120+0.001*(w-120))
			mpi.Add(w, 0.004+0.00005*120+0.000002*(w-120))
		}
	}
	c, err := odbscale.Characterize(4, cpi, mpi)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.RepresentativePivot()-120) > 30 {
		t.Fatalf("pivot = %v, want ~120", c.RepresentativePivot())
	}
	if out := odbscale.RenderSeries("CPI", []odbscale.Series{cpi}, 2); out == "" {
		t.Fatal("empty render")
	}
}

func TestPublicSpeedup(t *testing.T) {
	a := odbscale.IronLaw{Processors: 4, FrequencyHz: 1e9, IPX: 1e6, CPI: 4, Utilization: 1}
	b := odbscale.IronLaw{Processors: 1, FrequencyHz: 1e9, IPX: 1e6, CPI: 4, Utilization: 1}
	if got := odbscale.Speedup(a, b); got != 4 {
		t.Fatalf("Speedup = %v", got)
	}
}

// TestPublicObserversLeaveMetricsUnchanged attaches every facade
// observer option to one Run and checks that the metrics equal a plain
// Run of the same configuration, and that each observer collected data.
func TestPublicObserversLeaveMetricsUnchanged(t *testing.T) {
	cfg := odbscale.DefaultConfig(10, 8, 1)
	cfg.WarmupTxns = 100
	cfg.MeasureTxns = 300
	plain, err := odbscale.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := odbscale.NewRecorder(odbscale.RecorderConfig{})
	prof := odbscale.NewProfileCollector()
	spans := odbscale.NewSpanTracer(odbscale.SpanConfig{})
	qs := odbscale.NewQueueStatsCollector()
	observed, err := odbscale.Run(context.Background(), cfg,
		odbscale.WithRecorder(rec), odbscale.WithProfiler(prof),
		odbscale.WithSpans(spans), odbscale.WithQueueStats(qs))
	if err != nil {
		t.Fatal(err)
	}
	if observed != plain {
		t.Fatalf("observers perturbed the run:\nplain    %+v\nobserved %+v", plain, observed)
	}
	if len(rec.HistogramNames()) == 0 || prof.Profile().CPI() == 0 ||
		len(spans.Dump().Traces) == 0 || qs.Report() == nil {
		t.Fatal("an observer collected nothing")
	}
}

func TestPublicEMONAndFunctionalStore(t *testing.T) {
	cfg := odbscale.DefaultConfig(25, 10, 2)
	cfg.WarmupTxns = 150
	cfg.MeasureTxns = 400
	emon := odbscale.DefaultEMONConfig(cfg.Machine.FreqHz)
	emon.Window /= 200
	emon.Repeats = 3
	var results []odbscale.EMONResult
	_, err := odbscale.Run(context.Background(), cfg, odbscale.WithEMON(emon, &results))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no EMON results")
	}
	if alias, name, desc := odbscale.EMONEventInfo(results[0].Event); alias == "" || name == "" || desc == "" {
		t.Fatal("incomplete event info")
	}
	if len(odbscale.EMONEvents()) != 9 {
		t.Fatal("want 9 Table 2 events")
	}

	layout := odbscale.NewLayout(2)
	store := odbscale.NewFunctionalStore(layout, 64)
	gen := odbscale.NewTxnGenerator(layout, 7)
	for i := 0; i < 300; i++ {
		store.ApplyTxn(gen.Next(i % 2))
	}
	var w, d int64
	for wh := 0; wh < 2; wh++ {
		w += store.Counter(odbscale.TableWarehouse, uint64(wh))
		for dd := 0; dd < 10; dd++ {
			d += store.Counter(odbscale.TableDistrict, uint64(wh*10+dd))
		}
	}
	if w == 0 || w != d {
		t.Fatalf("conservation violated: warehouse %d vs district %d", w, d)
	}
	store.Crash()
	store.Recover()
	var w2 int64
	for wh := 0; wh < 2; wh++ {
		w2 += store.Counter(odbscale.TableWarehouse, uint64(wh))
	}
	if w2 != w {
		t.Fatalf("recovery lost money: %d != %d", w2, w)
	}

	rep, err := odbscale.Replicate(context.Background(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2 {
		t.Fatal("replication failed")
	}
}

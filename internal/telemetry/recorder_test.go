package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTimelineRing(t *testing.T) {
	tl := NewTimeline(3)
	for i := 0; i < 5; i++ {
		tl.Push(Sample{SimSeconds: float64(i)})
	}
	if tl.Len() != 3 {
		t.Fatalf("len = %d, want 3", tl.Len())
	}
	if tl.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tl.Dropped())
	}
	got := tl.Snapshot()
	for i, want := range []float64{2, 3, 4} {
		if got[i].SimSeconds != want {
			t.Fatalf("snapshot[%d].t = %f, want %f (oldest-first)", i, got[i].SimSeconds, want)
		}
	}
}

// TestTimelineWraparound pushes far past the ring capacity — several
// full wraps — and checks the ring keeps exactly the newest samples
// with a monotone simulated-time axis and an exact dropped count.
func TestTimelineWraparound(t *testing.T) {
	const cap, pushes = 4, 23
	r := NewRecorder(Config{RingCap: cap})
	for i := 0; i < pushes; i++ {
		r.PushSample(Sample{SimSeconds: float64(i), Txns: uint64(i)})
	}
	if got := r.TimelineDropped(); got != pushes-cap {
		t.Fatalf("dropped = %d, want %d", got, pushes-cap)
	}
	got := r.Timeline()
	if len(got) != cap {
		t.Fatalf("retained %d samples, want %d", len(got), cap)
	}
	for i, s := range got {
		if want := float64(pushes - cap + i); s.SimSeconds != want {
			t.Fatalf("sample %d has t=%f, want %f (newest %d, oldest-first)", i, s.SimSeconds, want, cap)
		}
		if i > 0 && got[i].SimSeconds <= got[i-1].SimSeconds {
			t.Fatalf("sim-time axis not monotone at %d: %f after %f", i, got[i].SimSeconds, got[i-1].SimSeconds)
		}
	}
}

func TestRecorderLifecycle(t *testing.T) {
	r := NewRecorder(Config{SampleIntervalMS: 10, RingCap: 100})
	if r.Interval() != 10 {
		t.Fatalf("interval = %f, want 10", r.Interval())
	}
	r.SetTarget(50)

	// Warm-up: 20 commits, then the phase mark at the reset.
	for i := 0; i < 20; i++ {
		r.NoteCommit(false)
		r.ObserveSpan("NewOrder", 1000)
	}
	r.MarkPhase(PhaseMeasure, 1.5)
	for i := 0; i < 50; i++ {
		r.NoteCommit(true)
		r.ObserveSpan("NewOrder", 2000)
	}
	r.MarkPhase(PhaseDone, 4.0)

	p := r.Progress()
	if p.Phase != PhaseDone || p.TotalTxns != 70 || p.MeasuredTxns != 50 || p.TargetTxns != 50 {
		t.Fatalf("progress = %+v", p)
	}
	phases := r.Phases()
	if len(phases) != 2 {
		t.Fatalf("phases = %+v, want 2 spans", phases)
	}
	if phases[0].Name != string(PhaseWarmup) || phases[0].SimSeconds != 1.5 || phases[0].Txns != 20 {
		t.Fatalf("warmup span = %+v", phases[0])
	}
	if phases[1].Name != string(PhaseMeasure) || phases[1].SimSeconds != 2.5 || phases[1].Txns != 50 {
		t.Fatalf("measure span = %+v", phases[1])
	}

	if names := r.HistogramNames(); len(names) != 1 || names[0] != "NewOrder" {
		t.Fatalf("histogram names = %v", names)
	}
	h := r.HistogramSnapshot("NewOrder")
	if h == nil || h.Count() != 70 {
		t.Fatalf("snapshot count = %v", h)
	}
	// Snapshots are deep copies: mutating one must not affect the recorder.
	h.Observe(5)
	if r.HistogramSnapshot("NewOrder").Count() != 70 {
		t.Fatal("HistogramSnapshot returned a shared histogram")
	}
	if r.HistogramSnapshot("missing") != nil {
		t.Fatal("snapshot of unobserved type should be nil")
	}
}

func TestWriteMetricsOpenMetrics(t *testing.T) {
	r := NewRecorder(Config{})
	r.SetTarget(100)
	r.MarkPhase(PhaseMeasure, 1.0)
	r.ObserveSpan("Payment", 1500)
	r.ObserveSpan("Payment", 2500)
	r.PushSample(Sample{SimSeconds: 1.25, Measuring: true, TPS: 640, CPI: 2.4, CPUUtil: []float64{0.95, 0.91}})

	var sb strings.Builder
	if err := r.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE odb_tps gauge",
		"odb_tps 640",
		"odb_run_measuring 1",
		`odb_cpu_util{cpu="0"} 0.95`,
		`odb_cpu_util{cpu="1"} 0.91`,
		`odb_txn_latency_us_bucket{txn_type="Payment",le="+Inf"} 2`,
		`odb_txn_latency_us_count{txn_type="Payment"} 2`,
		`odb_txn_latency_us_quantile{txn_type="Payment",quantile="0.5"}`,
		"# EOF",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(strings.TrimRight(out, "\n"), "# EOF") {
		t.Error("metrics output must end with # EOF")
	}

	// The JSON endpoints parse back.
	sb.Reset()
	if err := r.WriteTimeline(&sb); err != nil {
		t.Fatal(err)
	}
	var tl struct {
		Dropped uint64   `json:"dropped"`
		Samples []Sample `json:"samples"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &tl); err != nil {
		t.Fatalf("timeline JSON: %v", err)
	}
	if len(tl.Samples) != 1 || tl.Samples[0].TPS != 640 {
		t.Fatalf("timeline = %+v", tl)
	}

	sb.Reset()
	if err := r.WriteProgress(&sb); err != nil {
		t.Fatal(err)
	}
	var p RunProgress
	if err := json.Unmarshal([]byte(sb.String()), &p); err != nil {
		t.Fatalf("progress JSON: %v", err)
	}
	if p.Phase != PhaseMeasure || p.TargetTxns != 100 {
		t.Fatalf("progress = %+v", p)
	}
}

func TestSummarize(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	s := Summarize(&h, true)
	if s.Count != 100 || s.MinUS != 1 || s.MaxUS != 100 {
		t.Fatalf("summary = %+v", s)
	}
	dec, err := DecodeHistogram(s.Encoded)
	if err != nil || dec.Count() != 100 {
		t.Fatalf("encoded summary does not decode: %v", err)
	}
	if Summarize(&h, false).Encoded != nil {
		t.Fatal("encoded=false must omit the wire form")
	}
}

func TestManifestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "sweep.ck.json")
	path := ManifestPath(ckPath)
	if !strings.HasSuffix(path, ".manifest.json") {
		t.Fatalf("manifest path = %q", path)
	}

	man := NewManifest("odbrun", 42)
	man.CreatedAt = "2026-08-05T00:00:00Z"
	man.WallSeconds = 1.5
	man.Checkpoint = ckPath
	man.Phases = []PhaseSpan{{Name: "warmup", SimSeconds: 0.2, Txns: 100}}
	if err := man.SetConfig(map[string]int{"w": 100}); err != nil {
		t.Fatal(err)
	}
	if err := man.Save(path); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Version != ManifestVersion {
		t.Fatalf("version = %d, want %d", got.Version, ManifestVersion)
	}
	if got.Tool != "odbrun" || got.Seed != 42 || got.CreatedAt != man.CreatedAt {
		t.Fatalf("loaded = %+v", got)
	}
	if got.Provenance.GoVersion == "" || got.Provenance.Module != "odbscale" {
		t.Fatalf("provenance = %+v", got.Provenance)
	}
	if len(got.Phases) != 1 || got.Phases[0].Txns != 100 {
		t.Fatalf("phases = %+v", got.Phases)
	}
}

func TestCampaignRecorder(t *testing.T) {
	cr := NewCampaignRecorder(Config{})
	cr.SetTotalPoints(4)

	if name := PointName(100, 4); name != "W=100,P=4" {
		t.Fatalf("point name = %q", name)
	}

	recA := cr.StartRun("W=10,P=1")
	recA.ObserveSpan("NewOrder", 1000)
	recA.ObserveSpan("NewOrder", 3000)
	recA.PushSample(Sample{SimSeconds: 0.1, TPS: 500})

	recB := cr.StartRun("W=25,P=1")
	recB.ObserveSpan("NewOrder", 2000)

	p := cr.Progress()
	if len(p.Active) != 2 || p.Active[0] != "W=10,P=1" {
		t.Fatalf("active = %v (want sorted keys)", p.Active)
	}

	cr.FinishRun("W=10,P=1", true)
	cr.FinishRun("W=25,P=1", false) // failed run: dropped from the merge

	merged := cr.MergedHistograms()
	if h := merged["NewOrder"]; h == nil || h.Count() != 2 {
		t.Fatalf("merged = %v, want 2 observations from the successful run", merged)
	}

	cr.Event(func(cp *CampaignProgress) { cp.PointsDone++; cp.Runs++ })
	if got := cr.Progress(); got.PointsDone != 1 || got.TotalPoints != 4 {
		t.Fatalf("progress = %+v", got)
	}

	var sb strings.Builder
	if err := cr.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"odb_campaign_points_total 4",
		"odb_campaign_points_done 1",
		`odb_txn_latency_us_count{txn_type="NewOrder"} 2`,
		"# EOF",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("campaign metrics missing %q:\n%s", want, sb.String())
		}
	}

	sb.Reset()
	if err := cr.WriteTimeline(&sb); err != nil {
		t.Fatal(err)
	}
	var tl struct {
		Points []struct {
			Point   string   `json:"point"`
			Live    bool     `json:"live"`
			Samples []Sample `json:"samples"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.Points) != 1 || tl.Points[0].Point != "W=10,P=1" || tl.Points[0].Live {
		t.Fatalf("timeline points = %+v", tl.Points)
	}
	if len(tl.Points[0].Samples) != 1 || tl.Points[0].Samples[0].TPS != 500 {
		t.Fatalf("retained samples = %+v", tl.Points[0].Samples)
	}
}

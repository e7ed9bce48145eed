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
	if n := len(tl.Snapshot()); n != 3 {
		t.Fatalf("len = %d, want 3", n)
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

// TestTimelineWraparound pushes far past the recorder's ring capacity
// — several full wraps — and checks the ring keeps exactly the newest
// samples with a monotone simulated-time axis and an exact dropped
// count.
func TestTimelineWraparound(t *testing.T) {
	const pushes = 3*timelineCap + 23
	r := NewRecorder(0)
	for i := 0; i < pushes; i++ {
		r.PushSample(Sample{SimSeconds: float64(i), Txns: uint64(i)})
	}
	if got := r.TimelineDropped(); got != pushes-timelineCap {
		t.Fatalf("dropped = %d, want %d", got, pushes-timelineCap)
	}
	got := r.Timeline()
	if len(got) != timelineCap {
		t.Fatalf("retained %d samples, want %d", len(got), timelineCap)
	}
	for i, s := range got {
		if want := float64(pushes - timelineCap + i); s.SimSeconds != want {
			t.Fatalf("sample %d has t=%f, want %f (newest %d, oldest-first)", i, s.SimSeconds, want, timelineCap)
		}
		if i > 0 && got[i].SimSeconds <= got[i-1].SimSeconds {
			t.Fatalf("sim-time axis not monotone at %d: %f after %f", i, got[i].SimSeconds, got[i-1].SimSeconds)
		}
	}
}

func TestRecorderLifecycle(t *testing.T) {
	r := NewRecorder(10)
	if r.Interval() != 10 {
		t.Fatalf("interval = %f, want 10", r.Interval())
	}
	for _, ms := range []float64{0, -5} {
		if got := NewRecorder(ms).Interval(); got != defaultIntervalMS {
			t.Fatalf("NewRecorder(%v) interval = %f, want %d", ms, got, defaultIntervalMS)
		}
	}

	// The warm-up closes after 20 commits, the measurement after 50 more.
	r.MarkPhase(PhaseMeasure, 1.5, 20)
	r.MarkPhase(PhaseDone, 4.0, 70)

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
}

// TestWriteTimeline checks that the -timeline JSON dump parses back to
// the retained samples.
func TestWriteTimeline(t *testing.T) {
	r := NewRecorder(0)
	r.PushSample(Sample{SimSeconds: 1.25, Measuring: true, TPS: 640, CPI: 2.4, CPUUtil: []float64{0.95, 0.91}})

	var sb strings.Builder
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

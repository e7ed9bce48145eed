package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestTimelineRing(t *testing.T) {
	tl := NewTimeline(0)
	for i := 0; i < timelineCap+2; i++ {
		tl.Push(Sample{SimSeconds: float64(i)})
	}
	d := tl.Dump()
	if n := len(d.Samples); n != timelineCap {
		t.Fatalf("len = %d, want %d", n, timelineCap)
	}
	if d.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2", d.Dropped)
	}
	for i, want := range []float64{2, 3, 4} {
		if d.Samples[i].SimSeconds != want {
			t.Fatalf("samples[%d].t = %f, want %f (oldest-first)", i, d.Samples[i].SimSeconds, want)
		}
	}
}

// TestTimelineWraparound pushes far past the timeline's ring capacity
// — several full wraps — and checks the ring keeps exactly the newest
// samples with a monotone simulated-time axis and an exact dropped
// count.
func TestTimelineWraparound(t *testing.T) {
	const pushes = 3*timelineCap + 23
	tl := NewTimeline(0)
	for i := 0; i < pushes; i++ {
		tl.Push(Sample{SimSeconds: float64(i), Txns: uint64(i)})
	}
	d := tl.Dump()
	if d.Dropped != pushes-timelineCap {
		t.Fatalf("dropped = %d, want %d", d.Dropped, pushes-timelineCap)
	}
	got := d.Samples
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

// TestTimelinePhases checks the interval default and the phase spans:
// the first EndPhase closes the warm-up, the second the measurement.
func TestTimelinePhases(t *testing.T) {
	tl := NewTimeline(10)
	if tl.Interval() != 10 {
		t.Fatalf("interval = %f, want 10", tl.Interval())
	}
	if got := NewTimeline(0).Interval(); got != defaultIntervalMS {
		t.Fatalf("NewTimeline(0) interval = %f, want %d", got, defaultIntervalMS)
	}

	// The warm-up closes after 20 commits, the measurement after 50 more.
	tl.EndPhase(1.5, 20)
	tl.EndPhase(4.0, 70)

	phases := tl.Dump().Phases
	if len(phases) != 2 {
		t.Fatalf("phases = %+v, want 2 spans", phases)
	}
	if phases[0].Name != "warmup" || phases[0].SimSeconds != 1.5 || phases[0].Txns != 20 {
		t.Fatalf("warmup span = %+v", phases[0])
	}
	if phases[1].Name != "measure" || phases[1].SimSeconds != 2.5 || phases[1].Txns != 50 {
		t.Fatalf("measure span = %+v", phases[1])
	}
}

// TestWriteTimeline checks that the timeline's JSON file parses back to
// its label, phases and retained samples.
func TestWriteTimeline(t *testing.T) {
	tl := NewTimeline(0)
	tl.Push(Sample{SimSeconds: 1.25, Measuring: true, TPS: 640, CPI: 2.4, CPUUtil: []float64{0.95, 0.91}})
	tl.EndPhase(1, 10)
	d := tl.Dump()
	d.Label = "W=10,C=8,P=2"

	var sb strings.Builder
	if err := d.Write(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTimeline(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("timeline JSON: %v", err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("read back %+v, wrote %+v", got, d)
	}
	if _, err := ReadTimeline(strings.NewReader(`{"samples":`)); err == nil {
		t.Fatal("ReadTimeline accepted a truncated document")
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
}

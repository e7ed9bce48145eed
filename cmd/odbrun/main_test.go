package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"odbscale/internal/system"
	"odbscale/internal/telemetry"
)

// TestTimelineSampleBounds runs odbrun -timeline with a -sample the
// timeline rejects and with one it takes: NaN fails the command with
// ErrBadConfig, so odbrun exits non-zero, and writes no file; 20 ms
// writes a timeline whose phases are the warm-up and the measurement.
func TestTimelineSampleBounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "timeline.json")
	args := []string{"-w", "10", "-c", "8", "-p", "1", "-txns", "50", "-warmup", "20", "-timeline", path}
	if err := run(append(args, "-sample", "NaN"), io.Discard); !errors.Is(err, system.ErrBadConfig) {
		t.Fatalf("odbrun -sample NaN = %v, want ErrBadConfig", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("odbrun -sample NaN left a timeline file (stat: %v)", err)
	}

	if err := run(append(args, "-sample", "20"), io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := telemetry.ReadTimeline(f)
	if err != nil {
		t.Fatal(err)
	}
	if d.Label != "W=10,C=8,P=1" || len(d.Phases) != 2 || d.Phases[0].Name != "warmup" ||
		d.Phases[1].Name != "measure" || d.Phases[1].Txns != 50 || len(d.Samples) == 0 {
		t.Fatalf("timeline label %q, phases %+v, %d samples; want W=10,C=8,P=1, [warmup measure] with 50 measured, samples",
			d.Label, d.Phases, len(d.Samples))
	}
}

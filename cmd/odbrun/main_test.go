package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"odbscale/internal/campaign"
	"odbscale/internal/experiment"
	"odbscale/internal/system"
	"odbscale/internal/telemetry"
	"odbscale/internal/txtrace"
)

// TestTimelineSampleBounds runs odbrun -timeline with a -sample the
// timeline rejects and with one it takes: NaN fails the command with
// ErrBadConfig, so odbrun exits non-zero, and writes no file, not even
// the -trace file the run would have streamed; 20 ms writes a timeline
// whose phases are the warm-up and the measurement.
func TestTimelineSampleBounds(t *testing.T) {
	dir := t.TempDir()
	path, trace := filepath.Join(dir, "timeline.json"), filepath.Join(dir, "odb.trace")
	args := []string{"-w", "10", "-c", "8", "-p", "1", "-txns", "50", "-warmup", "20", "-timeline", path}
	if err := run(append(args, "-sample", "NaN", "-trace", trace), io.Discard); !errors.Is(err, system.ErrBadConfig) {
		t.Fatalf("odbrun -sample NaN = %v, want ErrBadConfig", err)
	}
	for _, f := range []string{path, trace} {
		if _, err := os.Stat(f); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("odbrun -sample NaN left %s (stat: %v)", f, err)
		}
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

// TestNoClients holds odbrun -c 0 to ErrBadConfig: a campaign point
// with no pinned count would take the client heuristic's instead.
func TestNoClients(t *testing.T) {
	if err := run([]string{"-w", "10", "-c", "0", "-p", "1"}, io.Discard); !errors.Is(err, system.ErrBadConfig) {
		t.Fatalf("odbrun -c 0 = %v, want ErrBadConfig", err)
	}
}

// TestJSONIsTheCampaignPoint holds odbrun -json to the point a campaign
// of the same configuration checkpoints: the same client count, the
// same metrics byte for byte and the same span payload, compacted.
func TestJSONIsTheCampaignPoint(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-w", "10", "-c", "8", "-p", "1", "-txns", "50", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Manifest struct {
			Tool   string `json:"tool"`
			Engine string `json:"engine"`
		} `json:"manifest"`
		W, P, C int
		Metrics json.RawMessage            `json:"metrics"`
		Flight  map[string]json.RawMessage `json:"flight"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}

	spec := experiment.DefaultSpec([]int{10}, []int{1})
	spec.AutoTune, spec.Clients, spec.MeasureTxns = false, 8, 50
	spec.Instruments = []campaign.Instrument{campaign.Spans(txtrace.Config{})}
	res, err := campaign.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := res.Point(10, 1)
	metrics, err := json.Marshal(pt.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	var got, wantSpans, gotSpans bytes.Buffer
	if err := json.Compact(&got, doc.Metrics); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&gotSpans, doc.Flight["spans"]); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&wantSpans, pt.Flight["spans"]); err != nil {
		t.Fatal(err)
	}
	if doc.Manifest.Tool != "odbrun" || doc.Manifest.Engine != "btree" || doc.W != 10 || doc.P != 1 || doc.C != pt.C {
		t.Errorf("odbrun -json: manifest %+v, W=%d C=%d P=%d; want odbrun on btree, W=10 C=%d P=1",
			doc.Manifest, doc.W, doc.C, doc.P, pt.C)
	}
	if !bytes.Equal(got.Bytes(), metrics) {
		t.Errorf("odbrun -json metrics differ from the campaign point's:\n%s\nwant\n%s", got.Bytes(), metrics)
	}
	if !bytes.Equal(gotSpans.Bytes(), wantSpans.Bytes()) {
		t.Errorf("odbrun -json flight.spans differs from the campaign point's")
	}
}

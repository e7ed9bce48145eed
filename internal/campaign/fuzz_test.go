package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"odbscale/internal/system"
	"odbscale/internal/txtrace"
)

// FuzzCheckpointRoundTrip fuzzes the JSON checkpoint decode path with
// corrupted and truncated input. The resume contract is that a damaged
// checkpoint errors — it must never panic and never yield a checkpoint
// that cannot survive a save/load round trip.
func FuzzCheckpointRoundTrip(f *testing.F) {
	valid := Checkpoint{
		Version: checkpointVersion,
		Spec: Fingerprint{
			Machine: "stock", Seed: 42, WarmupTxns: 50, MeasureTxns: 100,
			TuneTxns: 50, TargetUtil: 0.9, MinClients: 1, MaxClients: 64, AutoTune: true,
		},
		Points: []CheckpointPoint{{W: 10, P: 4, C: 16, Metrics: system.Metrics{Warehouses: 10, Processors: 4, TPS: 1234.5}}},
		Probes: []CheckpointProbe{{W: 10, P: 4, C: 8, Util: 0.87}},
	}
	data, err := json.MarshalIndent(&valid, "", " ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])                                    // truncated mid-object
	f.Add(data[:len(data)-2])                                    // missing closing brace
	f.Add([]byte(`{"version":99,"points":[],"probes":[]}`))      // future version
	f.Add([]byte(`{"version":1,"points":{"w":1}}`))              // wrong shape
	f.Add([]byte(`{`))                                           // malformed
	f.Add([]byte(``))                                            // empty file
	f.Add(bytes.Replace(data, []byte(`"w"`), []byte(`"w":`), 1)) // corrupted key
	f.Add(bytes.Replace(data, []byte(`42`), []byte(`4e999`), 1)) // numeric overflow
	f.Add(bytes.Replace(data, []byte(`"metrics"`),               // instrument payloads
		[]byte(`"flight":{"hists":{"NewOrder":"AAE="},"qstats":null},"metrics"`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "ck.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		cp, err := LoadCheckpoint(path) // must error on damage, never panic
		if err != nil {
			if cp != nil {
				t.Fatalf("LoadCheckpoint returned both a checkpoint and error %v", err)
			}
		} else {
			if cp.Version != checkpointVersion {
				t.Fatalf("accepted checkpoint version %d, want %d", cp.Version, checkpointVersion)
			}
			// Whatever decodes must survive a save/load round trip.
			out := filepath.Join(dir, "resaved.json")
			if err := cp.Save(out); err != nil {
				t.Fatalf("resaving a loaded checkpoint: %v", err)
			}
			again, err := LoadCheckpoint(out)
			if err != nil {
				t.Fatalf("reloading a resaved checkpoint: %v", err)
			}
			if again.Version != cp.Version || again.Spec != cp.Spec ||
				len(again.Points) != len(cp.Points) || len(again.Probes) != len(cp.Probes) {
				t.Fatalf("round trip changed the checkpoint: %+v vs %+v", again, cp)
			}
		}

		// The resume path wraps the same decode and hands every resumed
		// payload of an instrument's kind to its writer: it must also
		// degrade to an error (mismatched fingerprints and payloads that
		// do not decode included), never a panic.
		machine := system.XeonQuad()
		machine.Name = "stock"
		spec := Spec{
			Machine: machine, Tuning: system.DefaultTuning(), Seed: 42,
			WarmupTxns: 50, MeasureTxns: 100, TuneTxns: 50,
			TargetUtil: 0.9, MinClients: 1, MaxClients: 64, AutoTune: true,
			CheckpointPath: path, Resume: true,
			Warehouses: []int{10}, Processors: []int{4},
			Instruments: []Instrument{Profiles(), Spans(txtrace.Config{}), QueueStats(), Timeline(0)},
		}
		fake := func(context.Context, system.Config, []Attached) (system.Metrics, error) {
			return system.Metrics{CPUUtil: 0.95}, nil
		}
		if _, err := (&Runner{Spec: spec, RunFunc: fake}).Run(context.Background()); err != nil {
			t.Logf("resume rejected fuzzed checkpoint: %v", err)
		}
	})
}

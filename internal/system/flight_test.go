package system

import (
	"context"
	"reflect"
	"testing"

	"odbscale/internal/telemetry"
)

// flightCfg is a small configuration that exercises warm-up, the
// measurement reset and every transaction type.
func flightCfg() Config {
	cfg := DefaultConfig(2, 8, 1)
	cfg.WarmupTxns = 100
	cfg.MeasureTxns = 400
	return cfg
}

// TestRunRecordedDoesNotPerturb is the flight recorder's core
// guarantee: recording must not change the simulation. The same seed
// with and without the recorder must produce identical metrics.
func TestRunRecordedDoesNotPerturb(t *testing.T) {
	cfg := flightCfg()
	plain, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder(0)
	recorded, err := Run(context.Background(), cfg, WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	if plain != recorded {
		t.Errorf("recorder perturbed the simulation:\nplain    %+v\nrecorded %+v", plain, recorded)
	}
	// A nil recorder degrades to a plain run.
	viaNil, err := Run(context.Background(), cfg, WithRecorder(nil))
	if err != nil {
		t.Fatal(err)
	}
	if viaNil != plain {
		t.Error("Run with WithRecorder(nil) differs from a plain Run")
	}
}

// TestRunRecordedDeterministic re-runs the same seed and checks the
// timeline is bit-identical.
func TestRunRecordedDeterministic(t *testing.T) {
	run := func() (*telemetry.Recorder, Metrics) {
		rec := telemetry.NewRecorder(20)
		m, err := Run(context.Background(), flightCfg(), WithRecorder(rec))
		if err != nil {
			t.Fatal(err)
		}
		return rec, m
	}
	recA, mA := run()
	recB, mB := run()
	if mA != mB {
		t.Fatalf("metrics differ across reruns:\n%+v\n%+v", mA, mB)
	}
	tlA, tlB := recA.Timeline(), recB.Timeline()
	if len(tlA) == 0 || len(tlA) != len(tlB) {
		t.Fatalf("timeline lengths %d vs %d", len(tlA), len(tlB))
	}
	for i := range tlA {
		if !reflect.DeepEqual(tlA[i], tlB[i]) {
			t.Fatalf("sample %d differs:\n%+v\n%+v", i, tlA[i], tlB[i])
		}
	}
}

// TestRunRecordedFlightData checks the recorder's contents after a run:
// phases and their commit counts, monotonic samples and plausible
// interval rates.
func TestRunRecordedFlightData(t *testing.T) {
	cfg := flightCfg()
	rec := telemetry.NewRecorder(20)
	m, err := Run(context.Background(), cfg, WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}

	phases := rec.Phases()
	if len(phases) != 2 || phases[0].Name != "warmup" || phases[1].Name != "measure" {
		t.Fatalf("phases = %+v, want [warmup measure]", phases)
	}
	if phases[0].SimSeconds <= 0 || phases[1].SimSeconds <= 0 {
		t.Errorf("non-positive phase durations: %+v", phases)
	}
	// The warm-up runs at least to its commit target, and the
	// measurement period holds exactly the measured commits.
	if phases[0].Txns < uint64(cfg.WarmupTxns) || phases[1].Txns != m.Txns || m.Txns != uint64(cfg.MeasureTxns) {
		t.Errorf("phase commits %d, %d (measured %d), want ≥ %d, %d",
			phases[0].Txns, phases[1].Txns, m.Txns, cfg.WarmupTxns, cfg.MeasureTxns)
	}

	samples := rec.Timeline()
	if len(samples) < 5 {
		t.Fatalf("only %d samples; want several at 20ms over %0.2fs",
			len(samples), phases[0].SimSeconds+phases[1].SimSeconds)
	}
	var sawMeasuring bool
	for i, s := range samples {
		if i > 0 && s.SimSeconds <= samples[i-1].SimSeconds {
			t.Fatalf("sample times not increasing at %d: %f after %f", i, s.SimSeconds, samples[i-1].SimSeconds)
		}
		if i > 0 && s.Txns < samples[i-1].Txns {
			t.Fatalf("cumulative txns decreased at %d", i)
		}
		if len(s.CPUUtil) != cfg.Processors {
			t.Fatalf("sample %d has %d CPU utilizations, want %d", i, len(s.CPUUtil), cfg.Processors)
		}
		for _, u := range s.CPUUtil {
			if u < 0 || u > 1 {
				t.Fatalf("sample %d CPU util %f outside [0,1]", i, u)
			}
		}
		if s.BufferHit < 0 || s.BufferHit > 1 {
			t.Fatalf("sample %d buffer hit %f outside [0,1]", i, s.BufferHit)
		}
		if s.TPS < 0 || s.CPI < 0 {
			t.Fatalf("sample %d has negative rates: %+v", i, s)
		}
		sawMeasuring = sawMeasuring || s.Measuring
	}
	if !sawMeasuring {
		t.Error("no sample saw the measurement period")
	}

	// The mean of interval TPS over the measurement period should agree
	// with the final metric to within sampling noise.
	var sum float64
	var n int
	for _, s := range samples {
		if s.Measuring && s.TPS > 0 {
			sum += s.TPS
			n++
		}
	}
	if n > 0 {
		mean := sum / float64(n)
		if mean < m.TPS*0.5 || mean > m.TPS*1.5 {
			t.Errorf("mean sampled TPS %f far from final %f", mean, m.TPS)
		}
	}
}

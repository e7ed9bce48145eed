package system

import (
	"context"
	"errors"
	"math"
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

// TestRunRecordedDoesNotPerturb is the timeline's core guarantee:
// recording must not change the simulation. The same seed with and
// without the timeline must produce identical metrics.
func TestRunRecordedDoesNotPerturb(t *testing.T) {
	cfg := flightCfg()
	plain, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := Run(context.Background(), cfg, WithTimeline(telemetry.NewTimeline(0)))
	if err != nil {
		t.Fatal(err)
	}
	if plain != recorded {
		t.Errorf("timeline perturbed the simulation:\nplain    %+v\nrecorded %+v", plain, recorded)
	}
	// A nil timeline degrades to a plain run.
	viaNil, err := Run(context.Background(), cfg, WithTimeline(nil))
	if err != nil {
		t.Fatal(err)
	}
	if viaNil != plain {
		t.Error("Run with WithTimeline(nil) differs from a plain Run")
	}
}

// TestRunRecordedDeterministic re-runs the same seed and checks the
// timeline is bit-identical.
func TestRunRecordedDeterministic(t *testing.T) {
	run := func() (*telemetry.TimelineDump, Metrics) {
		tl := telemetry.NewTimeline(20)
		m, err := Run(context.Background(), flightCfg(), WithTimeline(tl))
		if err != nil {
			t.Fatal(err)
		}
		return tl.Dump(), m
	}
	dA, mA := run()
	dB, mB := run()
	if mA != mB {
		t.Fatalf("metrics differ across reruns:\n%+v\n%+v", mA, mB)
	}
	if !reflect.DeepEqual(dA.Phases, dB.Phases) {
		t.Fatalf("phases differ across reruns:\n%+v\n%+v", dA.Phases, dB.Phases)
	}
	tlA, tlB := dA.Samples, dB.Samples
	if len(tlA) == 0 || len(tlA) != len(tlB) {
		t.Fatalf("timeline lengths %d vs %d", len(tlA), len(tlB))
	}
	for i := range tlA {
		if !reflect.DeepEqual(tlA[i], tlB[i]) {
			t.Fatalf("sample %d differs:\n%+v\n%+v", i, tlA[i], tlB[i])
		}
	}
}

// TestRunRecordedFlightData checks the timeline's dump after a run:
// phases and their commit counts, monotonic samples and plausible
// interval rates.
func TestRunRecordedFlightData(t *testing.T) {
	cfg := flightCfg()
	tl := telemetry.NewTimeline(20)
	m, err := Run(context.Background(), cfg, WithTimeline(tl))
	if err != nil {
		t.Fatal(err)
	}
	d := tl.Dump()

	phases := d.Phases
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

	samples := d.Samples
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

// TestTimelineIntervalBounds holds WithTimeline to its interval bounds:
// an interval that is not finite or lies outside [1 ms, 3.6e6 ms] fails
// the run with ErrBadConfig before prefill (a 1e-9 ms interval once
// meant a tick every cycle and a run that would not finish; NaN, ±Inf
// and 1e30 one tick that never fired), 0 means 100 ms, and in-bound
// intervals sample at their spacing.
func TestTimelineIntervalBounds(t *testing.T) {
	cfg := flightCfg()
	for _, ms := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e30, 1e-9, 0.5, -20, 3.6e6 + 1} {
		_, err := Run(context.Background(), cfg, WithTimeline(telemetry.NewTimeline(ms)))
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("interval %v ms: Run = %v, want ErrBadConfig", ms, err)
		}
	}
	for _, tc := range []struct{ in, want float64 }{{0, 100}, {1, 1}, {20, 20}} {
		tl := telemetry.NewTimeline(tc.in)
		if _, err := Run(context.Background(), cfg, WithTimeline(tl)); err != nil {
			t.Fatalf("interval %v ms: %v", tc.in, err)
		}
		s := tl.Dump().Samples
		if len(s) < 2 {
			t.Fatalf("interval %v ms: %d samples, want several", tc.in, len(s))
		}
		if got := (s[1].SimSeconds - s[0].SimSeconds) * 1e3; math.Abs(got-tc.want) > 1e-6 {
			t.Errorf("interval %v ms: samples %v ms apart, want %v", tc.in, got, tc.want)
		}
	}
}

package system

import (
	"context"
	"math"
	"testing"

	"odbscale/internal/perfmon"
)

func emonConfig() perfmon.Config {
	// Short windows keep the test fast: 20 ms per group, 4 repeats.
	cfg := perfmon.DefaultConfig(1.6e9)
	cfg.Window = 1.6e9 / 50
	cfg.Repeats = 4
	return cfg
}

func TestRunEMONSamplesRates(t *testing.T) {
	cfg := fastConfig(40, 12, 4)
	cfg.MeasureTxns = 800
	var results []perfmon.Result
	m, err := Run(context.Background(), cfg, WithEMON(emonConfig(), &results))
	if err != nil {
		t.Fatal(err)
	}
	if m.Txns < 800 {
		t.Fatalf("only %d transactions measured", m.Txns)
	}
	byEvent := map[perfmon.Event]perfmon.Result{}
	for _, r := range results {
		byEvent[r.Event] = r
	}
	// The sampled L3 miss rate must agree with the exact bookkeeping
	// within sampling error (windows see different phases of execution).
	l3 := byEvent[perfmon.L3Miss]
	if len(l3.Samples) == 0 {
		t.Fatal("no L3 samples")
	}
	if rel := math.Abs(l3.Mean-m.MPI) / m.MPI; rel > 0.25 {
		t.Fatalf("EMON L3 rate %v vs exact MPI %v (%.0f%% apart)", l3.Mean, m.MPI, rel*100)
	}
	// Sampling produces real spread: the CI is nonzero but well below the
	// mean for a frequent event.
	if l3.CI95 <= 0 || l3.CI95 > l3.Mean {
		t.Fatalf("L3 CI = %v for mean %v", l3.CI95, l3.Mean)
	}
	// Level metrics are in range.
	bt := byEvent[perfmon.BusTransactionTime]
	if bt.Mean < 100 || bt.Mean > 400 {
		t.Fatalf("bus-transaction time = %v", bt.Mean)
	}
}

func TestRunEMONBadConfig(t *testing.T) {
	var results []perfmon.Result
	if _, err := Run(context.Background(), Config{}, WithEMON(emonConfig(), &results)); err == nil {
		t.Fatal("bad config accepted")
	}
	cfg := fastConfig(10, 8, 1)
	cfg.MeasureTxns = 0
	if _, err := Run(context.Background(), cfg, WithEMON(emonConfig(), &results)); err == nil {
		t.Fatal("zero target accepted")
	}
}

func TestCountersMonotonic(t *testing.T) {
	// The free-running counters never decrease and track the exact
	// accounting: instructions per transaction derived from the counters
	// matches the Metrics value.
	cfg := fastConfig(25, 10, 2)
	m := build(cfg)
	if err := m.prefill(context.Background()); err != nil {
		t.Fatal(err)
	}
	m.start()
	src := m.counterSource()
	var prev uint64
	for i := 0; i < 50; i++ {
		m.eng.RunUntil(m.eng.Now() + 2_000_000)
		now := src(perfmon.Instructions)
		if now < prev {
			t.Fatalf("instruction counter decreased: %d -> %d", prev, now)
		}
		prev = now
	}
	if prev == 0 {
		t.Fatal("counters never advanced")
	}
	if src(perfmon.ClockCycles) == 0 || src(perfmon.L3Miss) == 0 {
		t.Fatal("cycle or miss counters stuck at zero")
	}
	if src(perfmon.Event(99)) != 0 {
		t.Fatal("unknown event should read zero")
	}
}

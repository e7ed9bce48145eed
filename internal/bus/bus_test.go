package bus

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"odbscale/internal/sim"
)

func TestZeroLoadLatency(t *testing.T) {
	b := New(DefaultConfig(), 1)
	lat := b.Transaction(0)
	if lat != 102 {
		t.Fatalf("zero-load latency = %v, want 102", lat)
	}
}

func TestLatencyGrowsWithUtilization(t *testing.T) {
	cfg := DefaultConfig()
	b := New(cfg, 1)
	// Saturate a full window, then roll into the next one.
	var now sim.Time
	for now = 0; now < cfg.WindowCycles; now += 100 {
		b.Transaction(now) // 32 cycles busy per 100 -> ~32% utilization
	}
	lat := b.Transaction(cfg.WindowCycles + 1)
	if lat <= 102 {
		t.Fatalf("loaded latency = %v, want > 102", lat)
	}
	util := b.Utilization()
	if util < 0.25 || util > 0.40 {
		t.Fatalf("utilization = %v, want ~0.32", util)
	}
}

func TestUtilizationCapped(t *testing.T) {
	cfg := DefaultConfig()
	b := New(cfg, 1)
	var now sim.Time
	for now = 0; now < 2*cfg.WindowCycles; now += 10 {
		b.Transaction(now) // would exceed 100%
	}
	if u := b.Utilization(); u > 0.98 {
		t.Fatalf("utilization = %v, want capped at 0.98", u)
	}
	if lat := b.Latency(); math.IsInf(lat, 0) || math.IsNaN(lat) {
		t.Fatalf("latency not finite at saturation: %v", lat)
	}
}

func TestBandwidthScaleReducesOccupancy(t *testing.T) {
	cfg := DefaultConfig()
	slow := New(cfg, 1)
	cfg.BandwidthScale = 1.5
	fast := New(cfg, 1)
	var now sim.Time
	for now = 0; now < cfg.WindowCycles; now += 100 {
		slow.Transaction(now)
		fast.Transaction(now)
	}
	slow.roll(cfg.WindowCycles)
	fast.roll(cfg.WindowCycles)
	if fast.Utilization() >= slow.Utilization() {
		t.Fatalf("faster bus not less utilized: %v >= %v", fast.Utilization(), slow.Utilization())
	}
}

func TestPostedConsumesBandwidthOnly(t *testing.T) {
	b := New(DefaultConfig(), 1)
	b.ResetStats(0)
	b.Posted(0, 128) // 128 lines of DMA
	s := b.StatsAt(1000)
	if s.Transactions != 0 || s.Posted != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BusyCycles == 0 {
		t.Fatal("posted transfer consumed no bandwidth")
	}
	if s.MeanLatency() != 0 {
		t.Fatalf("MeanLatency with no transactions = %v", s.MeanLatency())
	}
}

func TestStatsWindow(t *testing.T) {
	b := New(DefaultConfig(), 1)
	b.ResetStats(1000)
	b.Transaction(2000)
	b.Transaction(3000)
	s := b.StatsAt(11000)
	if s.Transactions != 2 {
		t.Fatalf("Transactions = %d", s.Transactions)
	}
	if s.ElapsedCycles != 10000 {
		t.Fatalf("Elapsed = %v", s.ElapsedCycles)
	}
	if s.Utilization() <= 0 {
		t.Fatal("zero utilization after transactions")
	}
	if s.MeanLatency() < 102 {
		t.Fatalf("MeanLatency = %v", s.MeanLatency())
	}
}

func TestSampleMultiplier(t *testing.T) {
	cfg := DefaultConfig()
	plain := New(cfg, 1)
	sampled := New(cfg, 8)
	var now sim.Time
	for now = 0; now < cfg.WindowCycles; now += 800 {
		plain.Transaction(now)
		sampled.Transaction(now)
	}
	plain.roll(cfg.WindowCycles)
	sampled.roll(cfg.WindowCycles)
	ratio := sampled.Utilization() / math.Max(plain.Utilization(), 1e-12)
	if ratio < 6 || ratio > 10 {
		t.Fatalf("sampled/plain utilization ratio = %v, want ~8", ratio)
	}
}

// Property: latency is monotone in utilization and always at least the
// base latency.
func TestLatencyMonotoneQuick(t *testing.T) {
	f := func(u1, u2 float64) bool {
		clamp := func(u float64) float64 {
			u = math.Abs(u)
			return math.Min(u-math.Floor(u), 0.98) // into [0, 0.98)
		}
		a, bb := clamp(u1), clamp(u2)
		if a > bb {
			a, bb = bb, a
		}
		bus := New(DefaultConfig(), 1)
		bus.util = a
		la := bus.Latency()
		bus.util = bb
		lb := bus.Latency()
		return la >= 102 && lb >= la
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationZeroElapsed(t *testing.T) {
	var s Stats
	if s.Utilization() != 0 {
		t.Fatal("want 0 for zero elapsed")
	}
	s = Stats{BusyCycles: 500, ElapsedCycles: 100}
	if s.Utilization() != 1 {
		t.Fatalf("over-busy utilization = %v, want clamp to 1", s.Utilization())
	}
}

// rollLoop is roll as first written: one iteration per elapsed window.
func (b *Bus) rollLoop(now sim.Time) {
	for now >= b.windowStart+b.cfg.WindowCycles {
		b.util = b.windowBusy / float64(b.cfg.WindowCycles)
		if b.util > 0.98 {
			b.util = 0.98
		}
		b.windowBusy = 0
		b.windowStart += b.cfg.WindowCycles
	}
}

// Property: the closed-form roll leaves the window state exactly where
// the per-window loop does, over random time jumps (within a window, to
// the next one, and across many) and window sizes down to one cycle.
func TestRollMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, window := range []sim.Time{1, 2, 7, 100, 400_000} {
		cfg := DefaultConfig()
		cfg.WindowCycles = window
		fast, slow := New(cfg, 1), New(cfg, 1)
		var now sim.Time
		for i := 0; i < 5000; i++ {
			switch rng.Intn(3) {
			case 0:
				now += sim.Time(rng.Int63n(int64(window)))
			case 1:
				now += window + sim.Time(rng.Int63n(int64(window)))
			default:
				now += sim.Time(rng.Int63n(int64(50 * window)))
			}
			busy := rng.Float64() * 2 * float64(window)
			fast.roll(now)
			fast.windowBusy += busy
			slow.rollLoop(now)
			slow.windowBusy += busy
			if fast.util != slow.util || fast.windowBusy != slow.windowBusy || fast.windowStart != slow.windowStart {
				t.Fatalf("window %d, step %d at %d: roll gives util %v busy %v start %d; loop gives %v %v %d",
					window, i, now, fast.util, fast.windowBusy, fast.windowStart,
					slow.util, slow.windowBusy, slow.windowStart)
			}
		}
	}
}

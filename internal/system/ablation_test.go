package system

import "testing"

// Directional properties from the paper's ablations, at small W and few
// transactions: each sweep moves one machine parameter in the direction
// that relieves a resource and checks that the resource's metric does
// not rise.

// ablationConfig is the short run the directional sweeps share.
func ablationConfig(w, c, p int) Config {
	cfg := DefaultConfig(w, c, p)
	cfg.WarmupTxns = 100
	cfg.MeasureTxns = 300
	return cfg
}

// checkNonRising runs one configuration per step of a sweep and fails if
// the metric rises from one step to the next.
func checkNonRising(t *testing.T, name string, steps []float64, cfgAt func(x float64) Config, metric func(Metrics) float64) {
	t.Helper()
	prev := 0.0
	for i, x := range steps {
		got := metric(run(t, cfgAt(x)))
		t.Logf("%s: %v -> %.6g", name, x, got)
		if i > 0 && got > prev {
			t.Errorf("%s rose from %.6g to %.6g at %v", name, prev, got, x)
		}
		prev = got
	}
}

// TestL3MPIFallsWithL3Size: a larger L3 cannot miss more (the paper's
// recommended optimization direction).
func TestL3MPIFallsWithL3Size(t *testing.T) {
	checkNonRising(t, "MPI", []float64{256 << 10, 1 << 20, 4 << 20, 16 << 20},
		func(x float64) Config {
			cfg := ablationConfig(50, 8, 2)
			cfg.Machine.Geometry.L3Size = int(x)
			return cfg
		},
		func(m Metrics) float64 { return m.MPI })
}

// TestDiskUtilFallsWithDisks: spreading the same I/O-bound workload over
// more data disks cannot raise their utilization. A 64 MB buffer cache
// makes W=50 read from disk.
func TestDiskUtilFallsWithDisks(t *testing.T) {
	checkNonRising(t, "DiskUtil", []float64{4, 8, 16, 32},
		func(x float64) Config {
			cfg := ablationConfig(50, 16, 2)
			cfg.Machine.BufferCacheMB = 64
			cfg.Machine.Disks.DataDisks = int(x)
			return cfg
		},
		func(m Metrics) float64 {
			if m.ReadKBPerTxn == 0 {
				t.Fatal("no disk reads: the sweep is not I/O-bound")
			}
			return m.DiskUtil
		})
}

// TestIOQLatencyFallsWithBusBandwidth: more front-side-bus bandwidth
// cannot lengthen the IOQ transaction time (Figure 16's mechanism).
func TestIOQLatencyFallsWithBusBandwidth(t *testing.T) {
	checkNonRising(t, "BusTime", []float64{0.5, 1, 2, 4},
		func(x float64) Config {
			cfg := ablationConfig(10, 8, 4)
			cfg.Machine.Bus.BandwidthScale = x
			return cfg
		},
		func(m Metrics) float64 { return m.BusTime })
}

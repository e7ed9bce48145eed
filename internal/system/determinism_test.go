package system

import (
	"context"
	"reflect"
	"testing"
)

// determinismConfig builds a short configuration for bit-identity runs.
func determinismConfig(w, p int) Config {
	cfg := DefaultConfig(w, HeuristicClients(w, p), p)
	cfg.MeasureTxns = 400
	cfg.WarmupTxns = 150
	return cfg
}

// TestRunBitIdenticalAcrossRuns pins seed-stability of the optimized fast
// paths: the pooled event engine, the alias Zipf sampler, the splitmix64
// uniform draws, the recycled transaction and buffer-cache structures.
// Two runs of the same configuration must agree on every metric bit.
func TestRunBitIdenticalAcrossRuns(t *testing.T) {
	points := []struct{ w, p int }{
		{10, 1}, {10, 4},
		{200, 1}, {200, 4},
		{1200, 1}, {1200, 4},
	}
	if testing.Short() {
		points = points[:2]
	}
	for _, pt := range points {
		pt := pt
		t.Run("", func(t *testing.T) {
			t.Parallel()
			cfg := determinismConfig(pt.w, pt.p)
			a, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("W=%d P=%d first run: %v", pt.w, pt.p, err)
			}
			b, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("W=%d P=%d second run: %v", pt.w, pt.p, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("W=%d P=%d metrics differ across identical runs:\n%+v\n%+v", pt.w, pt.p, a, b)
			}
		})
	}
}

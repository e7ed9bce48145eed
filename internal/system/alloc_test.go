package system

import (
	"context"
	"runtime"
	"testing"
)

// TestMeasuredRunAllocations pins the measured phase of Run as
// allocation-free in steady state. Machine build, prefill and warm-up
// cost the same in two runs that differ only in MeasureTxns, so the
// difference in heap allocations between them, divided by the extra
// transactions, is the marginal cost of one measured transaction. It is
// checked on a cached, an I/O-bound (disk reads, dirty evictions, the
// DB writer) and an LSM configuration, the three simulator benchmark
// workloads at shorter lengths.
func TestMeasuredRunAllocations(t *testing.T) {
	const (
		maxMallocs = 0.25 // per measured transaction
		maxBytes   = 64
		shortTxns  = 200
		longTxns   = 1200
	)
	// The first run of a process also builds the process-wide item Zipf
	// table; a one-transaction run pays for it before any measurement.
	prime := DefaultConfig(10, 8, 1)
	prime.WarmupTxns = 0
	runAllocs(t, prime, 1)
	for _, tc := range []struct {
		name    string
		w, c, p int
		engine  string
	}{
		{"cached", 10, HeuristicClients(10, 4), 4, "btree"},
		{"scaled", 1200, 64, 4, "btree"},
		{"lsm", 200, HeuristicClients(200, 4), 4, "lsm"},
	} {
		cfg := DefaultConfig(tc.w, tc.c, tc.p)
		cfg.Engine = tc.engine
		// A long warm-up lets the transaction, lock and event pools reach
		// most of their high-water marks first. A pool that still grows
		// adds a whole object now and then, which the bounds absorb.
		cfg.WarmupTxns = 800
		short := runAllocs(t, cfg, shortTxns)
		long := runAllocs(t, cfg, longTxns)
		n := float64(longTxns - shortTxns)
		mallocs := float64(int64(long.mallocs-short.mallocs)) / n
		bytes := float64(int64(long.bytes-short.bytes)) / n
		t.Logf("%s: %.3f mallocs, %.1f B per measured transaction", tc.name, mallocs, bytes)
		if mallocs > maxMallocs || bytes > maxBytes {
			t.Errorf("%s: %.3f mallocs and %.1f B per measured transaction, want at most %v and %v",
				tc.name, mallocs, bytes, maxMallocs, maxBytes)
		}
	}
}

type allocCount struct{ mallocs, bytes uint64 }

// runAllocs runs cfg for txns measured transactions and returns the heap
// allocations the run made. The test is not parallel, so no other test
// allocates meanwhile.
func runAllocs(t *testing.T, cfg Config, txns int) allocCount {
	t.Helper()
	cfg.MeasureTxns = txns
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return allocCount{after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc}
}

package system

import (
	"context"
	"errors"
	"testing"
	"time"
)

// FuzzRunConfig runs small configurations end to end: 1–20 warehouses,
// 1–16 clients, 1–4 processors, up to 63 warm-up and 1–64 measured
// transactions, either engine, with fuzzed buffer cache size, data disk
// count, prefill sample, stock-level scan, DB-writer batch and age,
// LSM memtable size, fanout and L0 stall trigger, scale factor, cache
// line size, the three caches' associativity and the clock. row, when not zero,
// then applies degenerateRows' row row−1, so the seeds, one per row,
// start from configurations Validate must reject; two more seeds, one
// per engine, start from configurations it accepts. Every input must
// return ErrBadConfig or metrics with measured transactions before its
// context's deadline, and never panic.
func FuzzRunConfig(f *testing.F) {
	for row := range degenerateRows {
		f.Add(uint8(row+1), uint8(10), uint8(8), uint8(1), uint8(20), uint8(40),
			false, uint16(64), uint8(4), int16(50), int16(200), uint8(16), uint64(50_000), uint16(8),
			uint8(10), uint8(8), uint64(64), 64, 8, 8, 8, 1.6e9)
	}
	f.Add(uint8(0), uint8(20), uint8(16), uint8(4), uint8(10), uint8(30),
		true, uint16(2), uint8(1), int16(30), int16(20), uint8(4), uint64(1<<33), uint16(1<<15),
		uint8(2), uint8(64), uint64(1024), 128, 4, 16, 12, 3e16)
	// One configuration per engine that Validate accepts, so the seed
	// corpus runs real simulations too.
	f.Add(uint8(0), uint8(9), uint8(7), uint8(1), uint8(20), uint8(40),
		false, uint16(64), uint8(4), int16(200), int16(60), uint8(64), uint64(50_000), uint16(8),
		uint8(10), uint8(8), uint64(64), 64, 8, 8, 8, 1.6e9)
	f.Add(uint8(0), uint8(4), uint8(15), uint8(3), uint8(30), uint8(63),
		true, uint16(32), uint8(2), int16(100), int16(20), uint8(32), uint64(10_000), uint16(1),
		uint8(4), uint8(4), uint64(64), 64, 8, 8, 8, 1e12)
	f.Fuzz(func(t *testing.T, row, w, c, p, warm, measure uint8, lsm bool,
		cacheMB uint16, disks uint8, sample, scan int16, batch uint8, ageGets uint64, memtableMB uint16,
		fanout, l0StallRuns uint8, scale uint64, lineSize, tcWays, l2Ways, l3Ways int, freqHz float64) {
		cfg := DefaultConfig(1+int(w)%20, 1+int(c)%16, 1+int(p)%4)
		cfg.WarmupTxns = int(warm % 64)
		cfg.MeasureTxns = 1 + int(measure%64)
		if lsm {
			cfg.Engine = "lsm"
		}
		cfg.Machine.BufferCacheMB = int(cacheMB)
		cfg.Machine.Disks.DataDisks = int(disks % 32)
		cfg.Tuning.PrefillSampleTxns = int(sample)
		cfg.Tuning.StockLevelScan = int(scan)
		cfg.Tuning.DBWriterBatch = int(batch)
		cfg.Tuning.DBWriterAgeGets = ageGets
		cfg.Tuning.LSM.MemtableMB = int(memtableMB)
		cfg.Tuning.LSM.Fanout = int(fanout)
		cfg.Tuning.LSM.L0StallRuns = int(l0StallRuns)
		cfg.Tuning.Scale = scale
		g := &cfg.Machine.Geometry
		g.LineSize, g.TCWays, g.L2Ways, g.L3Ways = lineSize, tcWays, l2Ways, l3Ways
		cfg.Machine.FreqHz = freqHz
		if row > 0 {
			degenerateRows[int(row-1)%len(degenerateRows)].set(&cfg)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		m, err := Run(ctx, cfg)
		switch {
		case errors.Is(err, ErrBadConfig):
		case err != nil:
			t.Fatalf("%+v: Run = %v, want metrics or ErrBadConfig", cfg, err)
		case m.Txns < 1:
			t.Fatalf("%+v: Run measured no transactions", cfg)
		}
	})
}

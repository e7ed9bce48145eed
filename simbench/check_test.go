package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"odbscale/internal/system"
)

// goldenPoint runs the [10,4] point of the repository's B-tree golden
// with that golden's 150/400-transaction configuration and returns the
// run's metrics and the golden's recorded values.
func goldenPoint(t *testing.T) (system.Config, system.Metrics, json.RawMessage) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "testdata", "golden", "metrics-btree.json"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var golden map[string]json.RawMessage
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	want, ok := golden["[10,4]"]
	if !ok {
		t.Fatal("golden has no [10,4] point")
	}
	cfg := system.DefaultConfig(10, system.HeuristicClients(10, 4), 4)
	cfg.WarmupTxns = 150
	cfg.MeasureTxns = 400
	m, err := system.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return cfg, m, want
}

func TestCheckPassesOnGolden(t *testing.T) {
	cfg, m, want := goldenPoint(t)
	if err := checkMetrics(m, want); err != nil {
		t.Fatalf("golden point fails the check: %v", err)
	}
	if err := checkIronLaw(cfg, m); err != nil {
		t.Fatalf("golden point fails the iron law: %v", err)
	}
}

// TestCheckFailsOnOneFlippedBit flips the lowest bit of one metric at a
// time; the check must reject every mutant.
func TestCheckFailsOnOneFlippedBit(t *testing.T) {
	_, m, want := goldenPoint(t)
	flip := func(x float64) float64 { return math.Float64frombits(math.Float64bits(x) ^ 1) }
	mutants := map[string]func(*system.Metrics){
		"TPS":                   func(m *system.Metrics) { m.TPS = flip(m.TPS) },
		"CPI":                   func(m *system.Metrics) { m.CPI = flip(m.CPI) },
		"Rates.L3MissPI":        func(m *system.Metrics) { m.Rates.L3MissPI = flip(m.Rates.L3MissPI) },
		"Txns":                  func(m *system.Metrics) { m.Txns ^= 1 },
		"Breakdown.Branch":      func(m *system.Metrics) { m.Breakdown.Branch = flip(m.Breakdown.Branch) },
		"CoherenceShare (last)": func(m *system.Metrics) { m.CoherenceShare = flip(m.CoherenceShare) },
	}
	for name, mutate := range mutants {
		mm := m
		mutate(&mm)
		if err := checkMetrics(mm, want); err == nil {
			t.Errorf("%s: a one-bit flip passed the check", name)
		}
	}
}

// TestFingerprintsRecorded checks that every workload has a fingerprint
// at the default seed and that the file round-trips through the
// re-recording encoder unchanged.
func TestFingerprintsRecorded(t *testing.T) {
	fp, err := loadFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		raw := fp.lookup(wl.name, 1)
		if raw == nil {
			t.Fatalf("%s: no fingerprint at seed 1", wl.name)
		}
		var m system.Metrics
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if m.Engine != wl.engine || m.Warehouses != wl.w || m.Txns != uint64(wl.txns) {
			t.Errorf("%s: fingerprint is for %s W=%d with %d txns", wl.name, m.Engine, m.Warehouses, m.Txns)
		}
	}
	data, err := embedded.ReadFile("fingerprints.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(fp.encode()) != string(data) {
		t.Error("re-encoding the fingerprint file changes it")
	}
}

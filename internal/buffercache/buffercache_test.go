package buffercache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func newTest(blocks int) *Cache {
	return New(Config{Blocks: blocks})
}

func TestMissThenHit(t *testing.T) {
	c := newTest(4)
	if e := c.Lookup(1); e != nil {
		t.Fatal("cold lookup hit")
	}
	e, ev := c.Install(1)
	if ev.Valid {
		t.Fatalf("eviction on non-full cache: %+v", ev)
	}
	c.Release(e)
	e = c.Lookup(1)
	if e == nil {
		t.Fatal("lookup after install missed")
	}
	c.Release(e)
	s := c.Stats()
	if s.Gets != 2 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := newTest(2)
	a, _ := c.Install(1)
	c.Release(a)
	b, _ := c.Install(2)
	c.Release(b)
	// Touch 1 so 2 is LRU.
	e := c.Lookup(1)
	c.Release(e)
	_, ev := c.Install(3)
	if !ev.Valid || ev.ID != 2 {
		t.Fatalf("evicted %+v, want block 2", ev)
	}
}

func TestPinnedBlocksSkipped(t *testing.T) {
	c := newTest(2)
	pinned, _ := c.Install(1) // keep pinned
	b, _ := c.Install(2)
	c.Release(b)
	_, ev := c.Install(3)
	if !ev.Valid || ev.ID != 2 {
		t.Fatalf("evicted %+v, want unpinned block 2", ev)
	}
	c.Release(pinned)
}

func TestAllPinnedPanics(t *testing.T) {
	c := newTest(1)
	c.Install(1) // stays pinned
	defer func() {
		if recover() == nil {
			t.Fatal("want panic when all blocks pinned")
		}
	}()
	c.Install(2)
}

func TestDoubleInstallPanics(t *testing.T) {
	c := newTest(2)
	e, _ := c.Install(1)
	c.Release(e)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on double install")
		}
	}()
	c.Install(1)
}

func TestDirtyEvictionCountsWriteback(t *testing.T) {
	c := newTest(1)
	e, _ := c.Install(1)
	c.MarkDirty(e)
	c.Release(e)
	_, ev := c.Install(2)
	if !ev.Valid || !ev.Dirty || ev.ID != 1 {
		t.Fatalf("eviction = %+v, want dirty block 1", ev)
	}
	// The caller writes the victim back; the DB writer must not see it.
	if c.DirtyCount() != 0 {
		t.Fatalf("DirtyCount after dirty eviction = %d", c.DirtyCount())
	}
	if batch := c.CleanAgedInto(nil, 10, 0); len(batch) != 0 {
		t.Fatalf("evicted block handed to the DB writer too: %v", batch)
	}
}

func TestCleanBatchOldestFirst(t *testing.T) {
	c := newTest(4)
	for id := BlockID(1); id <= 3; id++ {
		e, _ := c.Install(id)
		c.MarkDirty(e)
		c.Release(e)
	}
	if c.DirtyCount() != 3 {
		t.Fatalf("DirtyCount = %d", c.DirtyCount())
	}
	batch := c.CleanAgedInto(nil, 2, 0)
	if len(batch) != 2 || batch[0] != 1 || batch[1] != 2 {
		t.Fatalf("batch = %v, want oldest first [1 2]", batch)
	}
	if c.DirtyCount() != 1 {
		t.Fatalf("DirtyCount after clean = %d", c.DirtyCount())
	}
	// Cleaned blocks remain resident.
	if e := c.Lookup(1); e == nil || e.dirty() {
		t.Fatal("cleaned block evicted or still dirty")
	}
}

func TestCleanBatchSkipsPinned(t *testing.T) {
	c := newTest(4)
	e, _ := c.Install(1)
	c.MarkDirty(e) // still pinned
	batch := c.CleanAgedInto(nil, 10, 0)
	if len(batch) != 0 {
		t.Fatalf("pinned dirty block cleaned: %v", batch)
	}
	c.Release(e)
	if batch = c.CleanAgedInto(nil, 10, 0); len(batch) != 1 {
		t.Fatalf("batch after release = %v", batch)
	}
}

// TestCleanAgedIntoWaitsForAge: a dirty block is cleaned only once minAge
// gets have passed since its last touch, and the batch appends to dst.
func TestCleanAgedIntoWaitsForAge(t *testing.T) {
	c := newTest(4)
	e, _ := c.Install(1)
	c.MarkDirty(e)
	c.Release(e)
	c.Lookup(2) // misses count as gets too
	if batch := c.CleanAgedInto(nil, 10, 2); len(batch) != 0 {
		t.Fatalf("block touched 1 get ago cleaned at minAge 2: %v", batch)
	}
	c.Lookup(3)
	dst := []BlockID{99}
	if batch := c.CleanAgedInto(dst, 10, 2); len(batch) != 2 || batch[0] != 99 || batch[1] != 1 {
		t.Fatalf("batch = %v, want [99 1]", batch)
	}
	if c.DirtyCount() != 0 {
		t.Fatalf("DirtyCount = %d", c.DirtyCount())
	}
}

func TestMarkDirtyIdempotent(t *testing.T) {
	c := newTest(2)
	e, _ := c.Install(1)
	c.MarkDirty(e)
	c.MarkDirty(e)
	if c.DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d", c.DirtyCount())
	}
	c.Release(e)
}

func TestMarkDirtyUnpinnedPanics(t *testing.T) {
	c := newTest(2)
	e, _ := c.Install(1)
	c.Release(e)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	c.MarkDirty(e)
}

func TestReleaseWithoutPinPanics(t *testing.T) {
	c := newTest(2)
	e, _ := c.Install(1)
	c.Release(e)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	c.Release(e)
}

func TestPayloadMode(t *testing.T) {
	c := New(Config{Blocks: 2, BlockSize: 64, Payloads: true})
	e, _ := c.Install(1)
	if len(c.Page(e)) != 64 {
		t.Fatalf("payload size = %d", len(c.Page(e)))
	}
	c.Page(e)[0] = 0xAB
	c.MarkDirty(e)
	c.Release(e)
	e = c.Lookup(1)
	if c.Page(e)[0] != 0xAB {
		t.Fatal("payload lost")
	}
	c.Release(e)
}

func TestPayloadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for payloads without block size")
		}
	}()
	New(Config{Blocks: 2, Payloads: true})
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(Config{})
}

func TestHitRatio(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 {
		t.Fatal("empty ratio nonzero")
	}
	s = Stats{Gets: 10, Hits: 7}
	if s.HitRatio() != 0.7 {
		t.Fatalf("ratio = %v", s.HitRatio())
	}
}

// Property: under random workloads, residency never exceeds capacity,
// hits plus the observed misses equal gets, and the dirty count matches a
// reference count.
func TestInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newTest(16)
		dirtyRef := map[BlockID]bool{}
		resident := map[BlockID]bool{}
		var misses uint64
		for i := 0; i < 3000; i++ {
			id := BlockID(rng.Intn(64))
			e := c.Lookup(id)
			if e == nil {
				misses++
				var ev Evicted
				e, ev = c.Install(id)
				resident[id] = true
				if ev.Valid {
					delete(resident, ev.ID)
					delete(dirtyRef, ev.ID)
				}
			}
			if rng.Intn(3) == 0 {
				c.MarkDirty(e)
				dirtyRef[id] = true
			}
			c.Release(e)
			if rng.Intn(20) == 0 {
				for _, cleaned := range c.CleanAgedInto(nil, 3, 0) {
					delete(dirtyRef, cleaned)
				}
			}
		}
		if c.size > c.Capacity() || c.size != len(resident) {
			return false
		}
		if c.DirtyCount() != len(dirtyRef) {
			return false
		}
		s := c.Stats()
		return s.Hits+misses == s.Gets
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: a larger cache never has fewer hits on the same trace.
func TestLargerCacheMoreHitsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trace := make([]BlockID, 2000)
		for i := range trace {
			trace[i] = BlockID(rng.Intn(50))
		}
		run := func(capacity int) uint64 {
			c := newTest(capacity)
			for _, id := range trace {
				if e := c.Lookup(id); e != nil {
					c.Release(e)
				} else {
					e, _ := c.Install(id)
					c.Release(e)
				}
			}
			return c.Stats().Hits
		}
		return run(32) >= run(8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestResetStatsPreservesContents(t *testing.T) {
	c := newTest(2)
	e, _ := c.Install(1)
	c.Release(e)
	c.ResetStats()
	if c.Stats().Gets != 0 {
		t.Fatal("stats not reset")
	}
	if e := c.Lookup(1); e == nil {
		t.Fatal("contents lost")
	} else {
		c.Release(e)
	}
}

// warmHotSet installs blocks [0, n) and touches each a few times so they
// sit at the warm end of the LRU chain.
func warmHotSet(c *Cache, n int) {
	for i := 0; i < n; i++ {
		e, _ := c.Install(BlockID(i))
		c.Release(e)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			e := c.Lookup(BlockID(i))
			if e == nil {
				panic("hot block missing during warm-up")
			}
			c.Release(e)
		}
	}
}

// TestPlainInstallHasNoScanResistance pins plain LRU: a one-touch sweep
// 8x the cache, installed at the MRU end, flushes the warm hot set.
func TestPlainInstallHasNoScanResistance(t *testing.T) {
	const hot, capacity = 32, 64
	c := newTest(capacity)
	warmHotSet(c, hot)
	for i := 0; i < 8*capacity; i++ {
		e, _ := c.Install(BlockID(10_000 + i))
		c.Release(e)
	}
	for i := 0; i < hot; i++ {
		if e := c.Lookup(BlockID(i)); e != nil {
			c.Release(e)
			t.Fatalf("hot block %d survived an MRU-inserted sweep 8x the cache", i)
		}
	}
}

// TestEntryFitsOneCacheLine pins the arena entry at 32 bytes with no
// pointer fields: the garbage collector never scans the arena, and two
// entries fill one 64-byte cache line with neither straddling two, so a
// probe's compare of the block ID and the chain updates that follow it
// touch a single line.
func TestEntryFitsOneCacheLine(t *testing.T) {
	typ := reflect.TypeOf(Entry{})
	if size := unsafe.Sizeof(Entry{}); size != 32 {
		t.Fatalf("Entry is %d bytes, want 32", size)
	}
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Fatalf("Entry.%s is a %s; want only integer fields, no pointers", f.Name, f.Type)
		}
	}
}

// xeonBlocks is the Xeon's buffer cache in blocks: 2,867 MB of 8 KB
// blocks.
const xeonBlocks = 2867 << 20 / 8192

// fullXeonCache returns a cache of the Xeon's capacity holding blocks
// [0, xeonBlocks), none pinned.
func fullXeonCache() *Cache {
	c := newTest(xeonBlocks)
	for id := BlockID(0); id < xeonBlocks; id++ {
		e, _ := c.Install(id)
		c.Release(e)
	}
	return c
}

// BenchmarkLookupHit times a lookup that hits, and its release, on a full
// Xeon-sized cache, at resident blocks drawn uniformly.
func BenchmarkLookupHit(b *testing.B) {
	c := fullXeonCache()
	rng := rand.New(rand.NewSource(1))
	ids := make([]BlockID, 1<<16)
	for i := range ids {
		ids[i] = BlockID(rng.Intn(xeonBlocks))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Release(c.Lookup(ids[i&(len(ids)-1)]))
	}
}

// BenchmarkInstallEvict times an install of a new block into a full
// Xeon-sized cache, which evicts the LRU block, and its release.
func BenchmarkInstallEvict(b *testing.B) {
	c := fullXeonCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _ := c.Install(BlockID(xeonBlocks + i))
		c.Release(e)
	}
}

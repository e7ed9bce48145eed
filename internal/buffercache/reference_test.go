package buffercache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refCache is the buffer cache as it was before the open-addressed
// index: a Go map over pointer-linked entries. FuzzCacheMatchesReference
// holds the production cache to it call for call.
type refCache struct {
	cfg   Config
	table map[BlockID]*refEntry

	head, tail           *refEntry // head = MRU, tail = LRU
	dirtyHead, dirtyTail *refEntry // dirtyTail = oldest dirty
	free                 *refEntry // recycled entries, chained through next
	size                 int
	dirtyCount           int

	stats Stats
}

type refEntry struct {
	ID    BlockID
	Data  []byte
	dirty bool
	pins  int
	touch uint64

	prev, next           *refEntry
	dirtyPrev, dirtyNext *refEntry
	inDirty              bool
}

func newRef(cfg Config) *refCache {
	c := &refCache{cfg: cfg, table: make(map[BlockID]*refEntry, cfg.Blocks)}
	arena := make([]refEntry, cfg.Blocks)
	for i := range arena {
		arena[i].next = c.free
		c.free = &arena[i]
	}
	return c
}

func (c *refCache) lruRemove(e *refEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *refCache) lruPushFront(e *refEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *refCache) dirtyRemove(e *refEntry) {
	if !e.inDirty {
		return
	}
	if e.dirtyPrev != nil {
		e.dirtyPrev.dirtyNext = e.dirtyNext
	} else {
		c.dirtyHead = e.dirtyNext
	}
	if e.dirtyNext != nil {
		e.dirtyNext.dirtyPrev = e.dirtyPrev
	} else {
		c.dirtyTail = e.dirtyPrev
	}
	e.dirtyPrev, e.dirtyNext = nil, nil
	e.inDirty = false
	c.dirtyCount--
}

func (c *refCache) dirtyPushFront(e *refEntry) {
	if e.inDirty {
		return
	}
	e.dirtyPrev, e.dirtyNext = nil, c.dirtyHead
	if c.dirtyHead != nil {
		c.dirtyHead.dirtyPrev = e
	}
	c.dirtyHead = e
	if c.dirtyTail == nil {
		c.dirtyTail = e
	}
	e.inDirty = true
	c.dirtyCount++
}

func (c *refCache) Lookup(id BlockID) *refEntry {
	c.stats.Gets++
	e, ok := c.table[id]
	if !ok {
		return nil
	}
	c.stats.Hits++
	c.lruRemove(e)
	c.lruPushFront(e)
	e.touch = c.stats.Gets
	e.pins++
	return e
}

func (c *refCache) Install(id BlockID) (*refEntry, Evicted) {
	if _, ok := c.table[id]; ok {
		panic(fmt.Sprintf("buffercache: Install of resident block %d", id))
	}
	var ev Evicted
	if c.size >= c.cfg.Blocks {
		victim := c.tail
		for victim != nil && victim.pins > 0 {
			victim = victim.prev
		}
		if victim == nil {
			panic("buffercache: all blocks pinned, cannot install")
		}
		ev = Evicted{ID: victim.ID, Dirty: victim.dirty, Valid: true, Data: victim.Data}
		if victim.dirty {
			c.dirtyRemove(victim)
		}
		c.lruRemove(victim)
		delete(c.table, victim.ID)
		c.size--
		victim.Data = nil
		victim.next = c.free
		c.free = victim
	}
	var e *refEntry
	if c.free != nil {
		e = c.free
		c.free = e.next
		*e = refEntry{ID: id, pins: 1, touch: c.stats.Gets}
	} else {
		e = &refEntry{ID: id, pins: 1, touch: c.stats.Gets}
	}
	if c.cfg.Payloads {
		e.Data = make([]byte, c.cfg.BlockSize)
	}
	c.table[id] = e
	c.lruPushFront(e)
	c.size++
	return e, ev
}

func (c *refCache) MarkDirty(e *refEntry) {
	if e.pins <= 0 {
		panic("buffercache: MarkDirty on unpinned entry")
	}
	if !e.dirty {
		e.dirty = true
		c.dirtyPushFront(e)
	}
}

func (c *refCache) Release(e *refEntry) {
	if e.pins <= 0 {
		panic("buffercache: Release without pin")
	}
	e.pins--
}

func (c *refCache) CleanAgedInto(dst []BlockID, max int, minAge uint64) []BlockID {
	start := len(dst)
	e := c.dirtyTail
	for e != nil && len(dst)-start < max {
		prev := e.dirtyPrev
		if e.pins == 0 && c.stats.Gets-e.touch >= minAge {
			e.dirty = false
			c.dirtyRemove(e)
			dst = append(dst, e.ID)
		}
		e = prev
	}
	return dst
}

func (c *refCache) ResetStats() { c.stats = Stats{} }

func (c *refCache) CleanAllDirty() []BlockID {
	var out []BlockID
	e := c.dirtyTail
	for e != nil {
		prev := e.dirtyPrev
		if e.pins == 0 {
			e.dirty = false
			c.dirtyRemove(e)
			out = append(out, e.ID)
		}
		e = prev
	}
	return out
}

// collidingIDs returns n block IDs whose home slots in c are the last
// two slots of the table or the first, so their probe sequences collide
// and wrap around the table's end.
func collidingIDs(c *Cache, n int) []BlockID {
	last := len(c.slots) - 1
	var ids []BlockID
	for id := BlockID(1); len(ids) < n; id++ {
		if h := c.home(id); h == 0 || h == last || h == last-1 {
			ids = append(ids, id)
		}
	}
	return ids
}

// checkIndex fails unless every resident block is found at its own
// arena entry and the table holds exactly the resident blocks.
func checkIndex(t *testing.T, step int, c *Cache) {
	t.Helper()
	full := 0
	for _, v := range c.slots {
		if v != 0 {
			full++
		}
	}
	if full != c.size {
		t.Fatalf("step %d: %d full slots for %d resident blocks", step, full, c.size)
	}
	for i := 0; i < c.size; i++ {
		if _, got := c.find(c.at(int32(i)).ID); got != int32(i) {
			t.Fatalf("step %d: block %d of entry %d found at entry %d", step, c.at(int32(i)).ID, i, got)
		}
	}
}

// panicked runs f and reports whether it panicked.
func panicked(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// FuzzCacheMatchesReference decodes its input into a sequence of cache
// calls and makes them on the production cache and on refCache side by
// side. The first byte picks the capacity (1–8 blocks) and payload mode;
// each later pair of bytes is one call and its argument. Blocks come from
// a pool chosen to collide in their home slots near the table's end, so
// eviction exercises backward-shift deletion across the wrap. Every call
// must agree on hit or miss, entry ID, Evicted (including the victim's
// page in payload mode), panics and cleaned ID order; after every step
// DirtyCount and Stats must agree and the index must find every resident
// block.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0x03, 0, 1, 0, 2, 0, 3, 0, 4, 3, 0, 4, 0, 0, 5, 5, 0})
	f.Add([]byte{0x81, 2, 0, 4, 0, 2, 1, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := Config{Blocks: 1 + int(data[0]%8)}
		if data[0]&0x80 != 0 {
			cfg.Payloads, cfg.BlockSize = true, 8
		}
		got, want := New(cfg), newRef(cfg)
		pool := collidingIDs(got, 2*cfg.Blocks+2)
		type handle struct {
			g *Entry
			r *refEntry
		}
		var pinned []handle
		stamp := func(e *Entry, r *refEntry) {
			if cfg.Payloads {
				binary.LittleEndian.PutUint64(got.Page(e), uint64(e.ID))
				binary.LittleEndian.PutUint64(r.Data, uint64(r.ID))
			}
		}
		install := func(step int, id BlockID) {
			var g *Entry
			var r *refEntry
			var gev, rev Evicted
			gp := panicked(func() { g, gev = got.Install(id) })
			rp := panicked(func() { r, rev = want.Install(id) })
			if gp != rp {
				t.Fatalf("step %d: Install(%d) panicked = %v, reference %v", step, id, gp, rp)
			}
			if gp {
				return
			}
			if g.ID != r.ID || gev.ID != rev.ID || gev.Dirty != rev.Dirty || gev.Valid != rev.Valid ||
				!bytes.Equal(gev.Data, rev.Data) {
				t.Fatalf("step %d: Install(%d) = %d, %+v; reference %d, %+v", step, id, g.ID, gev, r.ID, rev)
			}
			stamp(g, r)
			pinned = append(pinned, handle{g, r})
		}
		lookup := func(step int, id BlockID) bool {
			g, r := got.Lookup(id), want.Lookup(id)
			if (g == nil) != (r == nil) || g != nil && g.ID != r.ID {
				t.Fatalf("step %d: Lookup(%d) = %v, reference %v", step, id, g, r)
			}
			if g != nil {
				pinned = append(pinned, handle{g, r})
			}
			return g != nil
		}
		for step, i := 0, 1; i+1 < len(data); step, i = step+1, i+2 {
			op, arg := data[i], data[i+1]
			id := pool[int(arg)%len(pool)]
			switch op % 7 {
			case 0: // the system's read path: look up, install on a miss
				if !lookup(step, id) {
					install(step, id)
				}
			case 1:
				lookup(step, id)
			case 2:
				install(step, id)
			case 3:
				if len(pinned) > 0 {
					h := pinned[int(arg)%len(pinned)]
					got.MarkDirty(h.g)
					want.MarkDirty(h.r)
				}
			case 4:
				if len(pinned) > 0 {
					k := int(arg) % len(pinned)
					got.Release(pinned[k].g)
					want.Release(pinned[k].r)
					pinned = append(pinned[:k], pinned[k+1:]...)
				}
			case 5:
				max, minAge := int(arg%4), uint64(arg>>2%8)
				g := got.CleanAgedInto([]BlockID{7}, max, minAge)
				r := want.CleanAgedInto([]BlockID{7}, max, minAge)
				if fmt.Sprint(g) != fmt.Sprint(r) {
					t.Fatalf("step %d: CleanAgedInto(%d, %d) = %v, reference %v", step, max, minAge, g, r)
				}
			case 6:
				if g, r := got.CleanAllDirty(), want.CleanAllDirty(); fmt.Sprint(g) != fmt.Sprint(r) {
					t.Fatalf("step %d: CleanAllDirty = %v, reference %v", step, g, r)
				}
			}
			checkIndex(t, step, got)
			if got.DirtyCount() != want.dirtyCount || got.Stats() != want.stats {
				t.Fatalf("step %d: DirtyCount %d, Stats %+v; reference %d, %+v",
					step, got.DirtyCount(), got.Stats(), want.dirtyCount, want.stats)
			}
		}
	})
}

// TestArenaPagesMatchReference crosses arena pages, which the fuzz
// target's caches of at most eight blocks never do. It drives the
// production cache and refCache side by side through three full pages of
// installs and into a fourth while entries pinned on page 0 stay held,
// then dirties and releases those blocks through the held entries and
// installs until they are evicted. Every Evicted (with the victim's page
// in payload mode) and every CleanAgedInto batch must agree.
func TestArenaPagesMatchReference(t *testing.T) {
	for _, payloads := range []bool{false, true} {
		t.Run(fmt.Sprintf("payloads=%v", payloads), func(t *testing.T) {
			cfg := Config{Blocks: 3*pageLen + pageLen/2}
			if payloads {
				cfg.Payloads, cfg.BlockSize = true, 8
			}
			got, want := New(cfg), newRef(cfg)
			type handle struct {
				g *Entry
				r *refEntry
			}
			var evictions, dirtyEvictions int
			// access is the system's read path on both caches: look up,
			// install on a miss. In payload mode a new page is stamped
			// with its block, so evicted pages can be told apart.
			access := func(id BlockID) handle {
				g, r := got.Lookup(id), want.Lookup(id)
				if (g == nil) != (r == nil) {
					t.Fatalf("Lookup(%d) hit = %v, reference %v", id, g != nil, r != nil)
				}
				if g == nil {
					var gev, rev Evicted
					g, gev = got.Install(id)
					r, rev = want.Install(id)
					if gev.ID != rev.ID || gev.Dirty != rev.Dirty || gev.Valid != rev.Valid ||
						!bytes.Equal(gev.Data, rev.Data) {
						t.Fatalf("Install(%d) evicted %+v, reference %+v", id, gev, rev)
					}
					if gev.Valid {
						evictions++
						if gev.Dirty {
							dirtyEvictions++
						}
					}
					if payloads {
						binary.LittleEndian.PutUint64(got.Page(g), uint64(id))
						binary.LittleEndian.PutUint64(r.Data, uint64(id))
					}
				}
				if g.ID != id || r.ID != id {
					t.Fatalf("access(%d) = %d, reference %d", id, g.ID, r.ID)
				}
				return handle{g, r}
			}
			clean := func(max int, minAge uint64) {
				g := got.CleanAgedInto(nil, max, minAge)
				r := want.CleanAgedInto(nil, max, minAge)
				if fmt.Sprint(g) != fmt.Sprint(r) {
					t.Fatalf("CleanAgedInto(%d, %d) = %v, reference %v", max, minAge, g, r)
				}
			}
			// churn makes n accesses over blocks [16, 16+span), dirtying a
			// quarter of them and cleaning aged blocks now and then.
			rng := rand.New(rand.NewSource(1))
			churn := func(n, span int) {
				for k := 0; k < n; k++ {
					h := access(BlockID(16 + rng.Intn(span)))
					if rng.Intn(4) == 0 {
						got.MarkDirty(h.g)
						want.MarkDirty(h.r)
					}
					got.Release(h.g)
					want.Release(h.r)
					if k%512 == 0 {
						clean(64, uint64(rng.Intn(4096)))
					}
				}
			}

			held := make([]handle, 16)
			for i := range held {
				held[i] = access(BlockID(i))
			}
			churn(3*cfg.Blocks, 2*cfg.Blocks)
			if len(got.arena) != 4 || got.size != cfg.Blocks {
				t.Fatalf("%d arena pages for %d of %d blocks, want 4 pages and a full cache",
					len(got.arena), got.size, cfg.Blocks)
			}
			checkIndex(t, 0, got)
			for _, h := range held {
				if e := got.Lookup(h.g.ID); e != h.g {
					t.Fatalf("block %d moved from its pinned entry", h.g.ID)
				}
				if payloads && binary.LittleEndian.Uint64(got.Page(h.g)) != uint64(h.g.ID) {
					t.Fatalf("block %d lost its page", h.g.ID)
				}
				want.Lookup(h.r.ID)
				got.MarkDirty(h.g)
				want.MarkDirty(h.r)
				for range 2 {
					got.Release(h.g)
					want.Release(h.r)
				}
			}
			clean(8, 0)
			// A sweep of new blocks evicts everything else, the held
			// blocks among them, dirty or cleaned.
			before := evictions
			churn(2*cfg.Blocks, 1<<30)
			if evictions-before < cfg.Blocks || dirtyEvictions == 0 {
				t.Fatalf("%d evictions (%d dirty) in the sweep, want at least %d and some dirty",
					evictions-before, dirtyEvictions, cfg.Blocks)
			}
			checkIndex(t, 1, got)
			if got.DirtyCount() != want.dirtyCount || got.Stats() != want.stats {
				t.Fatalf("DirtyCount %d, Stats %+v; reference %d, %+v",
					got.DirtyCount(), got.Stats(), want.dirtyCount, want.stats)
			}
		})
	}
}

// TestResetStatsAgingMatchesReference holds CleanAgedInto's 32-bit touch
// stamps to refCache's uint64 ones across ResetStats, which the fuzz
// target never calls. Rounds of reads and writes over a cache smaller
// than the blocks they touch dirty entries at many stamps; after each
// round, and again after a reset and a few more accesses, both caches
// clean under thresholds from zero to within 2^16 of 2^32, and every
// batch must agree. Blocks stamped before a reset and untouched since
// must clean under thresholds above the get counter, as the uint64
// difference's wrap below zero cleans them in the reference.
func TestResetStatsAgingMatchesReference(t *testing.T) {
	cfg := Config{Blocks: 256}
	got, want := New(cfg), newRef(cfg)
	rng := rand.New(rand.NewSource(1))
	access := func(id BlockID, write bool) {
		g, r := got.Lookup(id), want.Lookup(id)
		if (g == nil) != (r == nil) {
			t.Fatalf("Lookup(%d) hit = %v, reference %v", id, g != nil, r != nil)
		}
		if g == nil {
			var gev, rev Evicted
			g, gev = got.Install(id)
			r, rev = want.Install(id)
			if gev.ID != rev.ID || gev.Dirty != rev.Dirty || gev.Valid != rev.Valid {
				t.Fatalf("Install(%d) evicted %+v, reference %+v", id, gev, rev)
			}
		}
		if write {
			got.MarkDirty(g)
			want.MarkDirty(r)
		}
		got.Release(g)
		want.Release(r)
	}
	thresholds := []uint64{0, 1, 64, 1000, 4000, 1 << 20, 1 << 31, math.MaxUint32 - 1<<16}
	var cleaned, wrapped int
	clean := func() {
		for _, minAge := range thresholds {
			g := got.CleanAgedInto(nil, 16, minAge)
			r := want.CleanAgedInto(nil, 16, minAge)
			if fmt.Sprint(g) != fmt.Sprint(r) {
				t.Fatalf("Gets %d: CleanAgedInto(16, %d) = %v, reference %v", got.Stats().Gets, minAge, g, r)
			}
			cleaned += len(g)
			if minAge > got.Stats().Gets {
				wrapped += len(g)
			}
		}
	}
	for round := 0; round < 8; round++ {
		for range 1000 + rng.Intn(4000) {
			access(BlockID(rng.Intn(384)), rng.Intn(3) == 0)
		}
		clean()
		got.ResetStats()
		want.ResetStats()
		for range rng.Intn(64) {
			access(BlockID(rng.Intn(384)), rng.Intn(3) == 0)
		}
		clean()
		if got.DirtyCount() != want.dirtyCount || got.Stats() != want.stats {
			t.Fatalf("round %d: DirtyCount %d, Stats %+v; reference %d, %+v",
				round, got.DirtyCount(), got.Stats(), want.dirtyCount, want.stats)
		}
	}
	if cleaned == 0 || wrapped == 0 {
		t.Fatalf("%d blocks cleaned, %d of them stamped before a reset; want some of each", cleaned, wrapped)
	}
}

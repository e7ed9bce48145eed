// Package buffercache implements the database buffer cache held in the
// SGA — the paper's central memory structure. It tracks block usage with
// an LRU chain so the most recently and frequently used database blocks
// stay in memory, supports pinning while a server process operates on a
// block, records dirty state for modified blocks, and exposes the
// DB-writer's view: the set of aged dirty blocks that must be written
// back to disk before reuse.
//
// The cache operates on block identities; in payload mode it also owns an
// 8 KB page per cached block so a functional storage engine can read and
// write real bytes (used by the small-scale examples and recovery tests).
package buffercache

import "fmt"

// BlockID names a database block.
type BlockID uint64

// Config sizes the cache.
type Config struct {
	Blocks    int  // capacity in blocks
	BlockSize int  // bytes per block (payload mode only)
	Payloads  bool // allocate real pages
}

// Stats counts cache lookups. Gets also clocks the DB writer's aging.
type Stats struct {
	Gets uint64
	Hits uint64
}

// HitRatio returns hits per get.
func (s Stats) HitRatio() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// Entry is a cached block. Callers receive entries pinned and must
// Release them.
type Entry struct {
	ID    BlockID
	Data  []byte // nil unless payload mode
	dirty bool
	pins  int
	touch uint64 // get-counter value at the last Lookup/Install

	prev, next           *Entry // LRU chain
	dirtyPrev, dirtyNext *Entry // dirty chain (aged order)
	inDirty              bool
}

// Cache is the buffer cache.
type Cache struct {
	cfg   Config
	table map[BlockID]*Entry

	head, tail           *Entry // head = MRU, tail = LRU
	dirtyHead, dirtyTail *Entry // dirtyTail = oldest dirty
	free                 *Entry // recycled entries, chained through next
	size                 int
	dirtyCount           int

	stats Stats
}

// New builds an empty cache.
func New(cfg Config) *Cache {
	if cfg.Blocks <= 0 {
		panic("buffercache: non-positive capacity")
	}
	if cfg.Payloads && cfg.BlockSize <= 0 {
		panic("buffercache: payload mode needs a block size")
	}
	c := &Cache{cfg: cfg, table: make(map[BlockID]*Entry, cfg.Blocks)}
	// The cache runs at capacity in steady state, so carve all entries out
	// of one arena up front and hand them out through the free list.
	arena := make([]Entry, cfg.Blocks)
	for i := range arena {
		arena[i].next = c.free
		c.free = &arena[i]
	}
	return c
}

// --- intrusive LRU list ---

func (c *Cache) lruRemove(e *Entry) {
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

func (c *Cache) lruPushFront(e *Entry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// --- dirty list (append new at head; tail is the oldest) ---

func (c *Cache) dirtyRemove(e *Entry) {
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

func (c *Cache) dirtyPushFront(e *Entry) {
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

// Lookup returns the entry for id pinned, or nil on a miss. A hit moves
// the block to the MRU position.
func (c *Cache) Lookup(id BlockID) *Entry {
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

// Evicted describes a block displaced by Install. Valid reports whether an
// eviction happened at all; it is a value, not a pointer, so the steady
// state of a full cache (every install evicts) does not allocate. In
// payload mode Data carries the victim's page so a dirty victim can be
// written to disk.
type Evicted struct {
	ID    BlockID
	Dirty bool
	Valid bool
	Data  []byte
}

// Install inserts a block just read from disk, pinned, evicting the
// least-recently-used unpinned block if the cache is full. Installing a
// block that is already present is a bug in the caller and panics.
// The second return reports the eviction, if one happened; a dirty victim
// must be written back by the caller (eviction write).
//
// Entry structs are pooled: an evicted block's entry is recycled for the
// incoming block, so a warmed-up cache installs without allocating. The
// victim's payload page (if any) is handed off in Evicted, never reused.
func (c *Cache) Install(id BlockID) (*Entry, Evicted) {
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
	var e *Entry
	if c.free != nil {
		e = c.free
		c.free = e.next
		*e = Entry{ID: id, pins: 1, touch: c.stats.Gets}
	} else {
		//lint:ignore hotalloc arena-miss fallback: allocates only until the entry free list covers capacity, steady state reuses
		e = &Entry{ID: id, pins: 1, touch: c.stats.Gets}
	}
	if c.cfg.Payloads {
		e.Data = make([]byte, c.cfg.BlockSize)
	}
	c.table[id] = e
	c.lruPushFront(e)
	c.size++
	return e, ev
}

// MarkDirty flags a pinned entry as modified.
func (c *Cache) MarkDirty(e *Entry) {
	if e.pins <= 0 {
		panic("buffercache: MarkDirty on unpinned entry")
	}
	if !e.dirty {
		e.dirty = true
		c.dirtyPushFront(e)
	}
}

// Release unpins an entry obtained from Lookup or Install.
func (c *Cache) Release(e *Entry) {
	if e.pins <= 0 {
		panic("buffercache: Release without pin")
	}
	e.pins--
}

// CleanAgedInto implements the DB writer's aging policy: walking the
// dirty list oldest-first, it cleans up to max unpinned blocks that have
// not been touched for at least minAge gets and appends their IDs to dst,
// so a periodic caller (the DB writer tick) can reuse one scratch buffer
// across calls. Hot blocks being re-dirtied stay dirty in memory instead
// of being written over and over, as with Oracle's LRU-W writer; only
// aged (cooled-off) dirty blocks reach the disk.
func (c *Cache) CleanAgedInto(dst []BlockID, max int, minAge uint64) []BlockID {
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

// CleanAllDirty cleans every dirty unpinned block regardless of position
// (a checkpoint) and returns their IDs.
func (c *Cache) CleanAllDirty() []BlockID {
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

// DirtyCount returns the number of dirty blocks.
func (c *Cache) DirtyCount() int { return c.dirtyCount }

// Capacity returns the configured capacity in blocks.
func (c *Cache) Capacity() int { return c.cfg.Blocks }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes counters, preserving contents (end of warm-up).
func (c *Cache) ResetStats() { c.stats = Stats{} }

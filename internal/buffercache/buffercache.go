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
//
// Memory follows residency, not capacity. Entries live in an arena of
// 32 KiB pages, allocated one at a time as blocks are installed and
// never moved, so a pinned *Entry stays valid across later installs.
// An entry is 32 bytes, so two fill one 64-byte host cache line and none
// straddles two. Entries are linked into the LRU and dirty chains by
// int32 arena indices and hold no pointers, so the garbage collector
// never scans the arena; payload pages sit in a side slice reached
// through Page. An entry does not store its own arena index: Lookup and
// Install know it, and MarkDirty and Page recover it from the last entry
// handed out or, failing that, by finding the entry's block. Blocks are
// found through an open-addressed table of int32 arena indices (linear
// probing, backward-shift deletion) that starts small and doubles past
// half full.
package buffercache

import (
	"fmt"
	"math"
	"math/bits"
)

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

const (
	none     = -1 // chain end
	notDirty = -2 // dirtyNext of an entry outside the dirty chain
)

const (
	pageShift = 10             // log2 of the entries per arena page
	pageLen   = 1 << pageShift // 1,024 32-byte entries, 32 KiB per page
	pageMask  = pageLen - 1

	minSlots = 1 << 10 // the index's first size, unless the capacity needs fewer
)

// Entry is a cached block. Callers receive entries pinned and must
// Release them. It holds no pointers, so the arena is never scanned by
// the garbage collector.
type Entry struct {
	ID    BlockID
	touch uint32 // low 32 bits of the get counter at the last Lookup/Install
	pins  int32

	prev, next           int32 // LRU chain
	dirtyPrev, dirtyNext int32 // dirty chain (aged order)
}

func (e *Entry) dirty() bool { return e.dirtyNext != notDirty }

// Cache is the buffer cache.
type Cache struct {
	cfg   Config
	arena []*[pageLen]Entry // arena index i is arena[i>>pageShift][i&pageMask]
	data  [][]byte          // payload page per arena index (payload mode)
	slots []int32           // arena index + 1 per slot, 0 = empty
	shift uint              // 64 − log2(len(slots))

	head, tail           int32 // head = MRU, tail = LRU
	dirtyHead, dirtyTail int32 // dirtyTail = oldest dirty
	size                 int   // resident blocks, the arena's used prefix
	dirtyCount           int
	last                 int32 // arena index of the entry Lookup or Install last returned

	stats Stats
}

// New builds an empty cache. It allocates no arena page and a small
// index; both grow as blocks are installed.
func New(cfg Config) *Cache {
	if cfg.Blocks <= 0 {
		panic("buffercache: non-positive capacity")
	}
	if cfg.Blocks >= math.MaxInt32 {
		panic("buffercache: capacity exceeds an int32 arena index")
	}
	if cfg.Payloads && cfg.BlockSize <= 0 {
		panic("buffercache: payload mode needs a block size")
	}
	c := &Cache{
		cfg:       cfg,
		head:      none,
		tail:      none,
		dirtyHead: none,
		dirtyTail: none,
		last:      none,
	}
	c.rehash(min(minSlots, slotsFor(cfg.Blocks)))
	return c
}

// slotsFor returns the index size for n resident blocks: the smallest
// power of two of at least 2n slots, so the load factor stays at or
// under 1/2 and linear probe sequences stay short.
func slotsFor(n int) int {
	s := 2
	for s < 2*n {
		s <<= 1
	}
	return s
}

// Reserve sizes the index for n resident blocks (at most the capacity)
// at once, so a caller that knows how many blocks it is about to install
// skips the doublings on the way.
func (c *Cache) Reserve(n int) {
	if s := slotsFor(min(n, c.cfg.Blocks)); s > len(c.slots) {
		c.rehash(s)
	}
}

// at returns the entry at arena index i.
func (c *Cache) at(i int32) *Entry {
	return &c.arena[i>>pageShift][i&pageMask]
}

// index returns the arena index of resident entry e: the last entry
// handed out, as it is right after the Lookup or Install that pinned e,
// or else the one the index finds for e's block.
func (c *Cache) index(e *Entry) int32 {
	if c.last != none && c.at(c.last) == e {
		return c.last
	}
	_, i := c.find(e.ID)
	return i
}

// Page returns e's payload page, or nil outside payload mode.
func (c *Cache) Page(e *Entry) []byte {
	if !c.cfg.Payloads {
		return nil
	}
	return c.data[c.index(e)]
}

// pageAt returns the payload page at arena index i, or nil outside
// payload mode.
func (c *Cache) pageAt(i int32) []byte {
	if !c.cfg.Payloads {
		return nil
	}
	return c.data[i]
}

// --- open-addressed index ---

// home returns id's home slot (Fibonacci hashing).
func (c *Cache) home(id BlockID) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> c.shift)
}

// rehash rebuilds the index in n slots, a power of two.
func (c *Cache) rehash(n int) {
	c.slots = make([]int32, n)
	c.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for i := int32(0); int(i) < c.size; i++ {
		s := c.home(c.at(i).ID)
		for c.slots[s] != 0 {
			s = (s + 1) & mask
		}
		c.slots[s] = i + 1
	}
}

// find returns id's slot and arena index, or the empty slot that ends
// id's probe sequence and −1.
func (c *Cache) find(id BlockID) (slot int, i int32) {
	mask := len(c.slots) - 1
	for s := c.home(id); ; s = (s + 1) & mask {
		v := c.slots[s]
		if v == 0 {
			return s, none
		}
		if c.at(v-1).ID == id {
			return s, v - 1
		}
	}
}

// unindex empties slot hole by backward shift: walking the rest of the
// probe cluster, each entry whose home is not cyclically in (hole, its
// slot] moves into the hole and leaves a new one behind, so no probe
// sequence is broken and no tombstones accumulate. It returns the final
// hole, the only slot that changed from full to empty.
func (c *Cache) unindex(hole int) int {
	mask := len(c.slots) - 1
	for j := (hole + 1) & mask; c.slots[j] != 0; j = (j + 1) & mask {
		v := c.slots[j]
		if (j-c.home(c.at(v-1).ID))&mask >= (j-hole)&mask {
			c.slots[hole] = v
			hole = j
		}
	}
	c.slots[hole] = 0
	return hole
}

// --- intrusive LRU chain ---

func (c *Cache) lruRemove(e *Entry) {
	if e.prev != none {
		c.at(e.prev).next = e.next
	} else {
		c.head = e.next
	}
	if e.next != none {
		c.at(e.next).prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// lruPushFront makes e, at arena index i, the MRU block.
func (c *Cache) lruPushFront(e *Entry, i int32) {
	e.prev, e.next = none, c.head
	if c.head != none {
		c.at(c.head).prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// --- dirty chain (append new at head; tail is the oldest) ---

func (c *Cache) dirtyRemove(e *Entry) {
	if e.dirtyPrev != none {
		c.at(e.dirtyPrev).dirtyNext = e.dirtyNext
	} else {
		c.dirtyHead = e.dirtyNext
	}
	if e.dirtyNext != none {
		c.at(e.dirtyNext).dirtyPrev = e.dirtyPrev
	} else {
		c.dirtyTail = e.dirtyPrev
	}
	e.dirtyPrev, e.dirtyNext = notDirty, notDirty
	c.dirtyCount--
}

// dirtyPushFront makes e, at arena index i, the newest dirty block.
func (c *Cache) dirtyPushFront(e *Entry, i int32) {
	e.dirtyPrev, e.dirtyNext = none, c.dirtyHead
	if c.dirtyHead != none {
		c.at(c.dirtyHead).dirtyPrev = i
	} else {
		c.dirtyTail = i
	}
	c.dirtyHead = i
	c.dirtyCount++
}

// Lookup returns the entry for id pinned, or nil on a miss. A hit moves
// the block to the MRU position.
func (c *Cache) Lookup(id BlockID) *Entry {
	c.stats.Gets++
	_, i := c.find(id)
	if i == none {
		return nil
	}
	c.stats.Hits++
	e := c.at(i)
	if i != c.head {
		c.lruRemove(e)
		c.lruPushFront(e, i)
	}
	e.touch = uint32(c.stats.Gets)
	e.pins++
	c.last = i
	return e
}

// PageOf returns the payload page of resident block id, or nil if the
// block is not resident or the cache holds no payloads. Unlike Lookup it
// counts no get and leaves the LRU chain alone, so a checkpoint can
// flush pages without disturbing the statistics or the eviction order.
func (c *Cache) PageOf(id BlockID) []byte {
	_, i := c.find(id)
	if i == none {
		return nil
	}
	return c.pageAt(i)
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
// Until the cache is full each install takes the next arena entry,
// adding an arena page every pageLen installs and doubling the index
// past half full; a full cache installs into the victim's entry, so
// installing never allocates outside payload mode once the cache is
// full. The victim's payload page (if any) is handed off in Evicted,
// never reused.
func (c *Cache) Install(id BlockID) (*Entry, Evicted) {
	growing := c.size < c.cfg.Blocks
	if growing && 2*(c.size+1) > len(c.slots) {
		c.rehash(2 * len(c.slots))
	}
	// One probe both checks residency and finds the insert slot.
	s, i := c.find(id)
	if i != none {
		panic(fmt.Sprintf("buffercache: Install of resident block %d", id))
	}
	var ev Evicted
	if growing {
		if c.size&pageMask == 0 {
			c.arena = append(c.arena, new([pageLen]Entry))
		}
		if c.cfg.Payloads {
			c.data = append(c.data, nil)
		}
		i = int32(c.size)
		c.size++
	} else {
		i = c.tail
		for i != none && c.at(i).pins > 0 {
			i = c.at(i).prev
		}
		if i == none {
			panic("buffercache: all blocks pinned, cannot install")
		}
		victim := c.at(i)
		ev = Evicted{ID: victim.ID, Dirty: victim.dirty(), Valid: true, Data: c.pageAt(i)}
		if ev.Dirty {
			c.dirtyRemove(victim)
		}
		c.lruRemove(victim)
		vs, _ := c.find(victim.ID)
		// The shift's final hole is the one slot that became empty; it
		// ends id's probe sequence instead of s if it comes first.
		mask, h := len(c.slots)-1, c.home(id)
		if hole := c.unindex(vs); (hole-h)&mask < (s-h)&mask {
			s = hole
		}
	}
	e := c.at(i)
	*e = Entry{ID: id, touch: uint32(c.stats.Gets), pins: 1, dirtyPrev: notDirty, dirtyNext: notDirty}
	if c.cfg.Payloads {
		c.data[i] = make([]byte, c.cfg.BlockSize)
	}
	c.slots[s] = i + 1
	c.lruPushFront(e, i)
	c.last = i
	return e, ev
}

// MarkDirty flags a pinned entry as modified.
func (c *Cache) MarkDirty(e *Entry) {
	if e.pins <= 0 {
		panic("buffercache: MarkDirty on unpinned entry")
	}
	if !e.dirty() {
		c.dirtyPushFront(e, c.index(e))
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
//
// Ages are counted modulo 2^32 gets, the width of an entry's touch
// stamp, so they equal the get counter's full difference while no age
// reaches 2^32. That holds across ResetStats too: a block stamped t
// before the reset and untouched since, with the counter now at g < t,
// ages 2^32 − (t − g), past any threshold up to 2^32 − t, as the
// counter's uint64 difference, wrapped below zero, is past every one.
func (c *Cache) CleanAgedInto(dst []BlockID, max int, minAge uint64) []BlockID {
	start := len(dst)
	now := uint32(c.stats.Gets)
	for i := c.dirtyTail; i != none && len(dst)-start < max; {
		e := c.at(i)
		i = e.dirtyPrev
		if e.pins == 0 && uint64(now-e.touch) >= minAge {
			c.dirtyRemove(e)
			dst = append(dst, e.ID)
		}
	}
	return dst
}

// CleanAllDirty cleans every dirty unpinned block regardless of position
// (a checkpoint) and returns their IDs.
func (c *Cache) CleanAllDirty() []BlockID {
	var out []BlockID
	for i := c.dirtyTail; i != none; {
		e := c.at(i)
		i = e.dirtyPrev
		if e.pins == 0 {
			c.dirtyRemove(e)
			out = append(out, e.ID)
		}
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

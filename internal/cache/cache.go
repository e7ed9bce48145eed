// Package cache implements the processor cache hierarchy used to measure
// the paper's MPI (L3 misses per instruction) behaviour: generic
// set-associative caches with LRU replacement and MESI states, a
// three-level per-CPU hierarchy (trace cache, L2, L3 — the Xeon MP's
// 16 KB-equivalent TC, 256 KB L2 and 1 MB L3), and a snooping coherence
// domain connecting the L3s of all processors.
//
// The caches count nothing themselves: each access reports its outcome
// in an AccessResult, and the caller (the workload synthesizer, the trace
// replayer) counts the events it needs.
package cache

import "fmt"

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// State is a MESI coherence state.
type State uint8

// MESI states. Invalid lines are not present.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

type way struct {
	tag   uint64 // full line address (not just the tag bits) for simplicity
	state State
	touch uint64
}

// Cache is a single set-associative cache with LRU replacement.
type Cache struct {
	lines    []way // set-major: set s holds lines[s*ways : (s+1)*ways]
	ways     int
	lineBits uint
	setMask  uint64
	tick     uint64
	// invalidated remembers lines removed by remote writes so the next
	// miss on them can be classified as a coherence miss. Entries are
	// consumed on the classifying miss.
	invalidated map[uint64]struct{}
}

// NewCache builds a cache of the given total size in bytes, associativity
// and line size. Size must be an exact multiple of ways*lineSize and the
// set count must be a power of two.
func NewCache(name string, size, ways, lineSize int) *Cache {
	if size <= 0 || ways <= 0 || lineSize <= 0 {
		panic("cache: non-positive geometry")
	}
	if size%(ways*lineSize) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible by ways*line %d", name, size, ways*lineSize))
	}
	nsets := size / (ways * lineSize)
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, nsets))
	}
	lineBits := uint(0)
	for 1<<lineBits < lineSize {
		lineBits++
	}
	return &Cache{
		lines:       make([]way, nsets*ways),
		ways:        ways,
		lineBits:    lineBits,
		setMask:     uint64(nsets - 1),
		invalidated: make(map[uint64]struct{}),
	}
}

// Line returns the line address containing addr.
func (c *Cache) Line(addr Addr) uint64 { return uint64(addr) >> c.lineBits }

// find scans line's set once. It returns the index in c.lines of the way
// holding line, or -1, and the way a fill of line would replace: the
// first invalid way, else the least recently used. Every access advances
// the tick before it stamps a way, so a valid way's touch is at least 1
// and ranking invalid ways at 0 puts the first of them first.
func (c *Cache) find(line uint64) (at, victim int) {
	base := int(line&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	oldest := ^uint64(0)
	for i := range set {
		w := &set[i]
		if w.tag == line && w.state != Invalid {
			return base + i, 0
		}
		t := w.touch
		if w.state == Invalid {
			t = 0
		}
		if t < oldest {
			victim, oldest = i, t
		}
	}
	return -1, base + victim
}

// Evicted describes a line displaced by an insertion.
type Evicted struct {
	Line  uint64
	Dirty bool // the line was Modified and needs a writeback
	Valid bool // false when the insertion used an empty way
}

// Access looks up a line, updating LRU. On a miss
// the line is inserted in the given state and the victim (if any) is
// returned. write upgrades the final state to Modified.
// coherMiss reports that the miss hit a line previously invalidated by a
// remote writer.
func (c *Cache) Access(line uint64, write bool, fillState State) (hit bool, victim Evicted, coherMiss bool) {
	at, v := c.find(line)
	if at >= 0 {
		c.hit(at, write)
		return true, Evicted{}, false
	}
	victim, coherMiss = c.fill(v, line, write, fillState)
	return false, victim, coherMiss
}

// hit makes way at, which holds the accessed line, most recently used;
// write upgrades it to Modified.
func (c *Cache) hit(at int, write bool) {
	c.tick++
	w := &c.lines[at]
	w.touch = c.tick
	if write {
		w.state = Modified
	}
}

// fill installs a missed line in way at, which find chose as the victim,
// in fillState (Modified for a write).
func (c *Cache) fill(at int, line uint64, write bool, fillState State) (victim Evicted, coherMiss bool) {
	c.tick++
	// The empty-map guard keeps the single-processor (and low-sharing)
	// fast path free of a per-miss map probe.
	if len(c.invalidated) != 0 {
		if _, ok := c.invalidated[line]; ok {
			delete(c.invalidated, line)
			coherMiss = true
		}
	}
	w := &c.lines[at]
	if w.state != Invalid {
		victim = Evicted{Line: w.tag, Dirty: w.state == Modified, Valid: true}
	}
	if write {
		fillState = Modified
	}
	*w = way{tag: line, state: fillState, touch: c.tick}
	return victim, coherMiss
}

// Invalidate removes line if present, recording it for coherence-miss
// classification. It reports whether the line was present and dirty.
func (c *Cache) Invalidate(line uint64) (present, dirty bool) {
	present, dirty = c.drop(line)
	if present {
		c.invalidated[line] = struct{}{}
	}
	return present, dirty
}

// drop removes line if present, as Invalidate does, without recording it
// for coherence-miss classification. The coherence domain classifies
// misses at L3 only, so it drops the L2 and trace-cache copies.
func (c *Cache) drop(line uint64) (present, dirty bool) {
	at, _ := c.find(line)
	if at < 0 {
		return false, false
	}
	w := &c.lines[at]
	dirty = w.state == Modified
	w.state = Invalid
	return true, dirty
}

// Downgrade moves line to Shared if present (a remote reader snooped it),
// reporting presence and whether it was dirty (requiring a writeback).
func (c *Cache) Downgrade(line uint64) (present, dirty bool) {
	at, _ := c.find(line)
	if at < 0 {
		return false, false
	}
	w := &c.lines[at]
	dirty = w.state == Modified
	w.state = Shared
	return true, dirty
}

// SetState forces the state of line if present, reporting whether it was.
// The coherence domain uses it for upgrades and L2→L3 writebacks.
func (c *Cache) SetState(line uint64, st State) bool {
	at, _ := c.find(line)
	if at < 0 {
		return false
	}
	c.lines[at].state = st
	return true
}

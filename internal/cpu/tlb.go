package cpu

// TLB is a small set-associative translation lookaside buffer over 4 KB
// pages with LRU replacement. The Xeon MP's DTLB holds 64 entries.
type TLB struct {
	entries []tlbEntry // set-major: set s holds entries[s*ways : (s+1)*ways]
	ways    int
	mask    uint64
	tick    uint64
	shift   uint
}

// tlbEntry is one translation. touch is the tick of its last use and 0
// for an empty entry: every access advances the tick before it stamps an
// entry, so a valid entry's touch is at least 1.
type tlbEntry struct {
	page  uint64
	touch uint64
}

// NewTLB builds a TLB with the given total entries and associativity over
// pageSize-byte pages. entries/ways must be a power of two.
func NewTLB(entries, ways, pageSize int) *TLB {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("cpu: bad TLB geometry")
	}
	nsets := entries / ways
	if nsets&(nsets-1) != 0 {
		panic("cpu: TLB set count not a power of two")
	}
	shift := uint(0)
	for 1<<shift < pageSize {
		shift++
	}
	return &TLB{entries: make([]tlbEntry, entries), ways: ways, mask: uint64(nsets - 1), shift: shift}
}

// Access translates the byte address addr, returning whether it hit. One
// scan of the set finds the page or, failing that, the victim: the first
// empty entry (touch 0), else the least recently used.
func (t *TLB) Access(addr uint64) bool {
	t.tick++
	page := addr >> t.shift
	base := int(page&t.mask) * t.ways
	set := t.entries[base : base+t.ways]
	victim, oldest := 0, ^uint64(0)
	for i := range set {
		e := &set[i]
		if e.page == page && e.touch != 0 {
			e.touch = t.tick
			return true
		}
		if e.touch < oldest {
			victim, oldest = i, e.touch
		}
	}
	set[victim] = tlbEntry{page: page, touch: t.tick}
	return false
}

// Flush empties the TLB, as a context switch to a different address space
// does on a processor without tagged TLBs.
func (t *TLB) Flush() {
	for i := range t.entries {
		t.entries[i].touch = 0
	}
}

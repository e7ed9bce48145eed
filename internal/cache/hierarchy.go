package cache

// Kind classifies a memory reference.
type Kind uint8

// Reference kinds: instruction fetch, data load, data store.
const (
	Fetch Kind = iota
	Load
	Store
)

// Geometry describes one machine's cache hierarchy. The zero value is not
// usable; use XeonGeometry or Itanium2Geometry, or build your own.
type Geometry struct {
	LineSize int
	TCSize   int // trace/instruction cache capacity in bytes
	TCWays   int
	L2Size   int
	L2Ways   int
	L3Size   int
	L3Ways   int
}

// XeonGeometry models the paper's Intel Xeon MP: an execution trace cache
// (modelled as a 16 KB instruction cache), 256 KB L2 and 1 MB L3, 64-byte
// lines.
func XeonGeometry() Geometry {
	return Geometry{LineSize: 64, TCSize: 16 << 10, TCWays: 8, L2Size: 256 << 10, L2Ways: 8, L3Size: 1 << 20, L3Ways: 8}
}

// Itanium2Geometry models the follow-on validation machine in the paper's
// Section 6.3: same front end, 3 MB L3.
func Itanium2Geometry() Geometry {
	g := XeonGeometry()
	g.L3Size = 3 << 20
	// 3 MB with 8 ways and 64 B lines has a non-power-of-two set count;
	// use 12 ways (the real Itanium2 L3 is 12-way).
	g.L3Ways = 12
	return g
}

// capacity rounds size down to a power-of-two number of sets, keeping at
// least one set.
func (g Geometry) capacity(size, ways int) int {
	set := ways * g.LineSize
	p := 1
	for p*2 <= size/set {
		p *= 2
	}
	return p * set
}

// AccessResult reports which levels missed for one reference.
type AccessResult struct {
	TCMiss    bool // only meaningful for Fetch references
	L2Miss    bool
	L3Miss    bool
	Coherence bool // the L3 miss was caused by a remote invalidation
	Writeback bool // the L3 fill displaced a dirty line onto the bus
}

// Hierarchy is the private cache stack of one CPU.
type Hierarchy struct {
	CPU    int
	tc     *Cache
	l2     *Cache
	l3     *Cache
	domain *Domain
}

// Domain couples the L3 caches of all CPUs with MESI snooping. Coherence
// may be disabled to ablate its cost (every fill is then Exclusive and no
// remote copies are invalidated).
type Domain struct {
	Geometry Geometry
	Coherent bool
	CPUs     []*Hierarchy
}

// NewDomain builds hierarchies for n CPUs sharing one coherence domain.
func NewDomain(g Geometry, n int, coherent bool) *Domain {
	d := &Domain{Geometry: g, Coherent: coherent}
	for i := 0; i < n; i++ {
		h := &Hierarchy{
			CPU:    i,
			tc:     NewCache("tc", g.capacity(g.TCSize, g.TCWays), g.TCWays, g.LineSize),
			l2:     NewCache("l2", g.capacity(g.L2Size, g.L2Ways), g.L2Ways, g.LineSize),
			l3:     NewCache("l3", g.capacity(g.L3Size, g.L3Ways), g.L3Ways, g.LineSize),
			domain: d,
		}
		d.CPUs = append(d.CPUs, h)
	}
	return d
}

// Access sends one reference through cpu's hierarchy. Addresses are byte
// addresses; the hierarchy handles line extraction. Each level's set is
// scanned once: the scan finds the line or the way its fill will
// replace, and nothing between the scan and the fill touches this CPU's
// set at that level.
func (d *Domain) Access(cpu int, addr Addr, kind Kind) AccessResult {
	h := d.CPUs[cpu]
	line := h.l3.Line(addr)
	var res AccessResult
	write := kind == Store

	if kind == Fetch {
		hit, _, _ := h.tc.Access(line, false, Exclusive)
		if hit {
			return res
		}
		res.TCMiss = true
	}

	// L2: a hit is local unless it is a store to a Shared line, which
	// must broadcast an upgrade to invalidate remote copies.
	at2, victim2 := h.l2.find(line)
	if at2 >= 0 {
		st := h.l2.lines[at2].state
		h.l2.hit(at2, write)
		if write && st == Shared && d.Coherent {
			d.invalidateOthers(cpu, line)
			h.l3.SetState(line, Modified)
		}
		return res
	}
	res.L2Miss = true

	// L3: hit fills L2 with the (possibly upgraded) coherence state.
	at3, victim3 := h.l3.find(line)
	if at3 >= 0 {
		st := h.l3.lines[at3].state
		h.l3.hit(at3, write)
		if write && st == Shared && d.Coherent {
			d.invalidateOthers(cpu, line)
		}
		h.fillL2(victim2, line, write, st)
		return res
	}

	// Full miss: snoop the other CPUs, fill L3 then L2.
	fill := Exclusive
	if d.Coherent {
		fill = d.snoop(cpu, line, write)
	}
	victim, coher := h.l3.fill(victim3, line, write, fill)
	h.fillL2(victim2, line, write, fill)
	res.L3Miss = true
	res.Coherence = coher
	res.Writeback = victim.Valid && victim.Dirty
	return res
}

// fillL2 installs line in the L2 way find chose (Modified for a write)
// and propagates a dirty L2 eviction into the L3 copy, so the eventual L3
// eviction produces the bus writeback.
func (h *Hierarchy) fillL2(at int, line uint64, write bool, st State) {
	if victim, _ := h.l2.fill(at, line, write, st); victim.Valid && victim.Dirty {
		h.l3.SetState(victim.Line, Modified)
	}
}

// snoop implements the bus-side MESI transitions for a fill on cpu and
// returns the state the line should be installed in.
func (d *Domain) snoop(cpu int, line uint64, write bool) State {
	anyOther := false
	for i, other := range d.CPUs {
		if i == cpu {
			continue
		}
		if write {
			if present, _ := other.l3.Invalidate(line); present {
				anyOther = true
				other.l2.drop(line)
				other.tc.drop(line)
			}
		} else {
			if present, _ := other.l3.Downgrade(line); present {
				anyOther = true
			}
		}
	}
	switch {
	case write:
		return Modified
	case anyOther:
		return Shared
	default:
		return Exclusive
	}
}

func (d *Domain) invalidateOthers(cpu int, line uint64) {
	for i, other := range d.CPUs {
		if i == cpu {
			continue
		}
		if present, _ := other.l3.Invalidate(line); present {
			other.l2.drop(line)
			other.tc.drop(line)
		}
	}
}

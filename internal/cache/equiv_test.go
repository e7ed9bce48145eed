package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// refCache and refDomain are the probe-then-access hierarchy the
// single-scan Domain.Access replaced, kept as the reference for the
// differential test: nested per-set slices, Probe followed by Access at
// each level, and coherence misses recorded at every level.
type refCache struct {
	sets        [][]way
	lineBits    uint
	setMask     uint64
	tick        uint64
	invalidated map[uint64]struct{}
}

func newRefCache(size, ways, lineSize int) *refCache {
	nsets := size / (ways * lineSize)
	lineBits := uint(0)
	for 1<<lineBits < lineSize {
		lineBits++
	}
	c := &refCache{sets: make([][]way, nsets), lineBits: lineBits, setMask: uint64(nsets - 1), invalidated: map[uint64]struct{}{}}
	for i := range c.sets {
		c.sets[i] = make([]way, ways)
	}
	return c
}

func (c *refCache) setOf(line uint64) []way { return c.sets[line&c.setMask] }

func (c *refCache) Probe(line uint64) (State, bool) {
	for i := range c.setOf(line) {
		w := &c.setOf(line)[i]
		if w.state != Invalid && w.tag == line {
			return w.state, true
		}
	}
	return Invalid, false
}

func (c *refCache) Access(line uint64, write bool, fillState State) (hit bool, victim Evicted, coherMiss bool) {
	c.tick++
	set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.tag == line {
			w.touch = c.tick
			if write {
				w.state = Modified
			}
			return true, Evicted{}, false
		}
	}
	if len(c.invalidated) != 0 {
		if _, ok := c.invalidated[line]; ok {
			delete(c.invalidated, line)
			coherMiss = true
		}
	}
	victimIdx := 0
	for i := range set {
		if set[i].state == Invalid {
			victimIdx = i
			goto fill
		}
		if set[i].touch < set[victimIdx].touch {
			victimIdx = i
		}
	}
	victim = Evicted{Line: set[victimIdx].tag, Dirty: set[victimIdx].state == Modified, Valid: true}
fill:
	st := fillState
	if write {
		st = Modified
	}
	set[victimIdx] = way{tag: line, state: st, touch: c.tick}
	return false, victim, coherMiss
}

func (c *refCache) Invalidate(line uint64) (present, dirty bool) {
	set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.tag == line {
			dirty = w.state == Modified
			w.state = Invalid
			c.invalidated[line] = struct{}{}
			return true, dirty
		}
	}
	return false, false
}

func (c *refCache) Downgrade(line uint64) (present, dirty bool) {
	set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.tag == line {
			dirty = w.state == Modified
			w.state = Shared
			return true, dirty
		}
	}
	return false, false
}

func (c *refCache) SetState(line uint64, st State) bool {
	set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.tag == line {
			w.state = st
			return true
		}
	}
	return false
}

type refHierarchy struct{ tc, l2, l3 *refCache }

type refDomain struct {
	coherent bool
	cpus     []*refHierarchy
}

func newRefDomain(g Geometry, n int, coherent bool) *refDomain {
	d := &refDomain{coherent: coherent}
	for i := 0; i < n; i++ {
		d.cpus = append(d.cpus, &refHierarchy{
			tc: newRefCache(g.capacity(g.TCSize, g.TCWays), g.TCWays, g.LineSize),
			l2: newRefCache(g.capacity(g.L2Size, g.L2Ways), g.L2Ways, g.LineSize),
			l3: newRefCache(g.capacity(g.L3Size, g.L3Ways), g.L3Ways, g.LineSize),
		})
	}
	return d
}

func (d *refDomain) Access(cpu int, addr Addr, kind Kind) AccessResult {
	h := d.cpus[cpu]
	line := uint64(addr) >> h.l3.lineBits
	var res AccessResult
	write := kind == Store
	if kind == Fetch {
		hit, _, _ := h.tc.Access(line, false, Exclusive)
		if hit {
			return res
		}
		res.TCMiss = true
	}
	if st, ok := h.l2.Probe(line); ok {
		h.l2.Access(line, write, st)
		if write && st == Shared && d.coherent {
			d.invalidateOthers(cpu, line)
			h.l3.SetState(line, Modified)
		}
		return res
	}
	res.L2Miss = true
	if st, ok := h.l3.Probe(line); ok {
		h.l3.Access(line, write, st)
		newState := st
		if write {
			if st == Shared && d.coherent {
				d.invalidateOthers(cpu, line)
			}
			newState = Modified
		}
		_, l2victim, _ := h.l2.Access(line, write, newState)
		h.writeback(l2victim)
		return res
	}
	fill := Exclusive
	if d.coherent {
		fill = d.snoop(cpu, line, write)
	}
	_, victim, coher := h.l3.Access(line, write, fill)
	st := fill
	if write {
		st = Modified
	}
	_, l2victim, _ := h.l2.Access(line, write, st)
	h.writeback(l2victim)
	res.L3Miss = true
	res.Coherence = coher
	res.Writeback = victim.Valid && victim.Dirty
	return res
}

func (h *refHierarchy) writeback(victim Evicted) {
	if victim.Valid && victim.Dirty {
		h.l3.SetState(victim.Line, Modified)
	}
}

func (d *refDomain) snoop(cpu int, line uint64, write bool) State {
	anyOther := false
	for i, other := range d.cpus {
		if i == cpu {
			continue
		}
		if write {
			if present, _ := other.l3.Invalidate(line); present {
				anyOther = true
				other.l2.Invalidate(line)
				other.tc.Invalidate(line)
			}
		} else if present, _ := other.l3.Downgrade(line); present {
			anyOther = true
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

func (d *refDomain) invalidateOthers(cpu int, line uint64) {
	for i, other := range d.cpus {
		if i == cpu {
			continue
		}
		if present, _ := other.l3.Invalidate(line); present {
			other.l2.Invalidate(line)
			other.tc.Invalidate(line)
		}
	}
}

// sameContents reports whether a flat cache and a reference cache hold
// the same lines in the same ways and states with the same LRU stamps.
func sameContents(c *Cache, r *refCache) bool {
	for s, set := range r.sets {
		for i, w := range set {
			got := c.lines[s*c.ways+i]
			if got.state != w.state || (w.state != Invalid && (got.tag != w.tag || got.touch != w.touch)) {
				return false
			}
		}
	}
	return true
}

// TestDomainAccessMatchesReference drives both hierarchies with the same
// random reference stream, over a small address range so lines are
// shared, evicted and invalidated often, and compares every AccessResult,
// then every level's contents and the L3's pending coherence-miss
// records (only L3 classifies coherence misses).
func TestDomainAccessMatchesReference(t *testing.T) {
	for _, p := range []int{1, 4} {
		for _, coherent := range []bool{true, false} {
			f := func(seed int64) bool {
				g := testGeometry()
				d, ref := NewDomain(g, p, coherent), newRefDomain(g, p, coherent)
				rng := rand.New(rand.NewSource(seed))
				lines := 64 + rng.Intn(4096)
				for i := 0; i < 20_000; i++ {
					cpu := rng.Intn(p)
					addr := Addr(rng.Intn(lines)*64 + rng.Intn(64))
					kind := Kind(rng.Intn(3))
					if got, want := d.Access(cpu, addr, kind), ref.Access(cpu, addr, kind); got != want {
						t.Logf("P=%d coherent=%v seed=%d ref %d: got %+v, reference %+v", p, coherent, seed, i, got, want)
						return false
					}
				}
				for i, h := range d.CPUs {
					r := ref.cpus[i]
					if !sameContents(h.l3, r.l3) || !sameContents(h.l2, r.l2) || !sameContents(h.tc, r.tc) {
						t.Logf("P=%d coherent=%v seed=%d: CPU %d contents differ", p, coherent, seed, i)
						return false
					}
					if !reflect.DeepEqual(h.l3.invalidated, r.l3.invalidated) {
						t.Logf("P=%d coherent=%v seed=%d: CPU %d L3 holds %d invalidation records, reference %d", p, coherent, seed, i, len(h.l3.invalidated), len(r.l3.invalidated))
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
				t.Fatalf("P=%d coherent=%v: %v", p, coherent, err)
			}
		}
	}
}

// BenchmarkDomainAccess sends a fixed skewed reference stream, a mix of
// fetches, loads and stores over four CPUs, through a coherent domain of
// the Xeon geometry scaled by 64, the synthesizer's default.
func BenchmarkDomainAccess(b *testing.B) {
	g := XeonGeometry()
	g.TCSize, g.L2Size, g.L3Size = g.TCSize/64, g.L2Size/64, g.L3Size/64
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.1, 1, 1<<14)
	type ref struct {
		cpu  int
		addr Addr
		kind Kind
	}
	refs := make([]ref, 1<<16)
	for i := range refs {
		refs[i] = ref{cpu: rng.Intn(4), addr: Addr(z.Uint64() * 64), kind: Kind(rng.Intn(3))}
	}
	d := NewDomain(g, 4, true)
	b.ResetTimer()
	misses := 0
	for i := 0; i < b.N; i++ {
		r := refs[i&(len(refs)-1)]
		if d.Access(r.cpu, r.addr, r.kind).L3Miss {
			misses++
		}
	}
	benchSink = misses
}

var benchSink int

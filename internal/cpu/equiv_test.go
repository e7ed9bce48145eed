package cpu

import (
	"math/rand"
	"testing"
)

// refPredictor is the branching gselect update the table-driven Record
// replaced, kept as the reference for the equivalence test.
type refPredictor struct {
	history  uint64
	bits     uint
	histBits uint
	table    []uint8
}

func newRefPredictor(bits, histBits uint) *refPredictor {
	t := make([]uint8, 1<<bits)
	for i := range t {
		t[i] = 1
	}
	return &refPredictor{bits: bits, histBits: histBits, table: t}
}

func (b *refPredictor) Record(pc uint64, taken bool) bool {
	idx := ((pc << b.histBits) | (b.history & ((1 << b.histBits) - 1))) & ((1 << b.bits) - 1)
	ctr := b.table[idx]
	predictTaken := ctr >= 2
	correct := predictTaken == taken
	if taken && ctr < 3 {
		b.table[idx] = ctr + 1
	} else if !taken && ctr > 0 {
		b.table[idx] = ctr - 1
	}
	b.history <<= 1
	if taken {
		b.history |= 1
	}
	return correct
}

func TestBranchRecordMatchesReference(t *testing.T) {
	for _, g := range []struct{ bits, histBits uint }{{1, 0}, {4, 4}, {12, 4}, {13, 2}, {14, 0}, {24, 8}} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := NewBranchPredictor(g.bits, g.histBits), newRefPredictor(g.bits, g.histBits)
			sites := 1 + rng.Intn(2000)
			for i := 0; i < 200_000; i++ {
				pc := uint64(rng.Intn(sites))
				if i%7 == 0 {
					pc = rng.Uint64() // high bits must be masked off
				}
				// A per-site bias, so counters saturate in both directions.
				taken := rng.Intn(100) < int(pc*37%100)
				if gr, wr := got.Record(pc, taken), want.Record(pc, taken); gr != wr {
					t.Fatalf("bits=%d hist=%d seed=%d record %d: got %v, reference %v", g.bits, g.histBits, seed, i, gr, wr)
				}
			}
			if got.history != want.history {
				t.Fatalf("bits=%d hist=%d seed=%d: history %#x, reference %#x", g.bits, g.histBits, seed, got.history, want.history)
			}
			for i, c := range want.table {
				if got.table[i] != c {
					t.Fatalf("bits=%d hist=%d seed=%d: counter %d = %d, reference %d", g.bits, g.histBits, seed, i, got.table[i], c)
				}
			}
		}
	}
}

// refTLB is the nested-slice TLB the flat set-major one replaced.
type refTLB struct {
	sets       [][]refTLBEntry
	mask, tick uint64
	shift      uint
}

type refTLBEntry struct {
	page  uint64
	valid bool
	touch uint64
}

func newRefTLB(entries, ways, pageSize int) *refTLB {
	nsets := entries / ways
	shift := uint(0)
	for 1<<shift < pageSize {
		shift++
	}
	t := &refTLB{sets: make([][]refTLBEntry, nsets), mask: uint64(nsets - 1), shift: shift}
	for i := range t.sets {
		t.sets[i] = make([]refTLBEntry, ways)
	}
	return t
}

func (t *refTLB) Access(addr uint64) bool {
	t.tick++
	page := addr >> t.shift
	set := t.sets[page&t.mask]
	for i := range set {
		if set[i].valid && set[i].page == page {
			set[i].touch = t.tick
			return true
		}
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].touch < set[victim].touch {
			victim = i
		}
	}
	set[victim] = refTLBEntry{page: page, valid: true, touch: t.tick}
	return false
}

func (t *refTLB) Flush() {
	for i := range t.sets {
		for j := range t.sets[i] {
			t.sets[i][j].valid = false
		}
	}
}

func TestTLBMatchesReference(t *testing.T) {
	for _, g := range []struct{ entries, ways, page int }{{64, 4, 64}, {64, 4, 4096}, {16, 16, 64}, {8, 1, 64}, {2, 2, 1}} {
		rng := rand.New(rand.NewSource(int64(g.entries*g.ways + g.page)))
		got, want := NewTLB(g.entries, g.ways, g.page), newRefTLB(g.entries, g.ways, g.page)
		for i := 0; i < 300_000; i++ {
			if rng.Intn(5000) == 0 {
				got.Flush()
				want.Flush()
			}
			addr := uint64(rng.Intn(g.entries*3)) * uint64(g.page)
			if i%11 == 0 {
				addr = 0 // page 0 must not alias an empty entry
			}
			if gh, wh := got.Access(addr), want.Access(addr); gh != wh {
				t.Fatalf("%+v access %d (addr %#x): got %v, reference %v", g, i, addr, gh, wh)
			}
		}
		for s, set := range want.sets {
			for i, w := range set {
				e := got.entries[s*g.ways+i]
				if (e.touch != 0) != w.valid || w.valid && (e.page != w.page || e.touch != w.touch) {
					t.Fatalf("%+v: set %d way %d = %+v, reference %+v", g, s, i, e, w)
				}
			}
		}
	}
}

// branchStream is a fixed Zipf-like site stream with per-site biased
// outcomes, the shape the reference synthesizer feeds the predictor.
func branchStream(n int) ([]uint64, []bool) {
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.05, 1, 511)
	sites, taken := make([]uint64, n), make([]bool, n)
	for i := range sites {
		sites[i] = z.Uint64()
		bias := 0.97
		switch {
		case sites[i]%16 == 0:
			bias = 0.6
		case sites[i]%2 == 1:
			bias = 0.03
		}
		taken[i] = rng.Float64() < bias
	}
	return sites, taken
}

func BenchmarkBranchRecord(b *testing.B) {
	sites, taken := branchStream(1 << 16)
	bp := NewBranchPredictor(13, 2)
	b.ResetTimer()
	correct := 0
	for i := 0; i < b.N; i++ {
		j := i & (len(sites) - 1)
		if bp.Record(sites[j], taken[j]) {
			correct++
		}
	}
	benchSink = correct
}

func BenchmarkTLBAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.2, 1, 4095)
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = z.Uint64() * 64
	}
	tlb := NewTLB(64, 4, 64)
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if tlb.Access(addrs[i&(len(addrs)-1)]) {
			hits++
		}
	}
	benchSink = hits
}

var benchSink int

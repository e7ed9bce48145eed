package odb

import (
	"slices"
	"sync"
	"testing"

	"odbscale/internal/xrand"
)

// privateGenerator is NewGenerator as it was before the item table was
// shared: the generator builds its own item-popularity Zipf.
func privateGenerator(l *Layout, rng *xrand.Rand) *Generator {
	return &Generator{
		L:              l,
		rng:            rng,
		planner:        NewBTreePlanner(l),
		item:           xrand.NewZipf(rng.Split(101), 1.45, Items),
		nextOrderID:    make([]int, l.Warehouses*DistrictsPerWarehouse),
		StockLevelScan: 60,
	}
}

// draw returns the next n transactions of g, copied out of its pool.
func draw(g *Generator, n, clients int) []Txn {
	out := make([]Txn, n)
	for i := range out {
		txn := g.Next(i % clients)
		out[i] = *txn
		out[i].Ops = slices.Clone(txn.Ops)
		g.Recycle(txn)
	}
	return out
}

// sameTxns fails t at the first transaction or op where got and want
// differ.
func sameTxns(t *testing.T, got, want []Txn) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if g.Type != w.Type || g.Home != w.Home || g.District != w.District ||
			g.UserIPX != w.UserIPX || g.LogBytes != w.LogBytes || len(g.Ops) != len(w.Ops) {
			t.Fatalf("txn %d: %+v, want %+v", i, g, w)
		}
		for j := range w.Ops {
			if g.Ops[j] != w.Ops[j] {
				t.Fatalf("txn %d op %d: %+v, want %+v", i, j, g.Ops[j], w.Ops[j])
			}
		}
	}
}

// A generator over the shared item table produces, op for op, the
// transactions of one that builds its own table from the same stream.
func TestSharedItemTableMatchesPrivate(t *testing.T) {
	l := NewLayout(20)
	for _, seed := range []int64{1, 2} {
		got := draw(NewGenerator(l, xrand.New(seed)), 3000, 16)
		want := draw(privateGenerator(l, xrand.New(seed)), 3000, 16)
		sameTxns(t, got, want)
	}
}

// Generators on different goroutines draw from the shared table at once
// (the race detector checks the sharing) and each still produces its
// own seed's sequence.
func TestSharedItemTableParallel(t *testing.T) {
	l := NewLayout(20)
	const gens, n = 4, 1000
	want := make([][]Txn, gens)
	for i := range want {
		want[i] = draw(privateGenerator(l, xrand.New(int64(i))), n, 8)
	}
	got := make([][]Txn, gens)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = draw(NewGenerator(l, xrand.New(int64(i))), n, 8)
		}()
	}
	wg.Wait()
	for i := range want {
		sameTxns(t, got[i], want[i])
	}
}

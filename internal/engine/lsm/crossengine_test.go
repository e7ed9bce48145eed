package lsm

import (
	"testing"

	"odbscale/internal/odb"
	"odbscale/internal/xrand"
)

// TestStoreMatchesBTreeStore is the cross-engine differential test. One
// seed drives two generators, one planning through the B-tree planner
// and one through the LSM planner; every pair of programs must carry the
// same (table, ord, delta) row effects. The B-tree programs run on an
// odb.Store whose cache is far smaller than the rows touched, so dirty
// pages are evicted to disk between updates; the LSM programs run on
// this package's Store. Both stores go through the same phases at the
// same points — work, a checkpoint (B-tree) or flush (LSM), and more
// work ended by a crash and recovery — and after every phase each
// touched row must read the same counter in both.
func TestStoreMatchesBTreeStore(t *testing.T) {
	const (
		warehouses  = 2
		seed        = 23
		cacheBlocks = 8
	)
	layout := odb.NewLayout(warehouses)
	in := newInstance(testEnv(t, warehouses, smallLSM()))
	bgen := odb.NewGenerator(layout, xrand.New(seed))
	lgen := odb.NewGenerator(layout, xrand.New(seed))
	lgen.SetPlanner(in.Planner(xrand.New(seed).Split(6)))
	bstore := odb.NewStore(layout, cacheBlocks)
	lstore := NewStore(layout)

	type effect struct {
		table odb.TableID
		ord   uint64
		delta int64
	}
	effects := func(txn *odb.Txn) []effect {
		var out []effect
		for _, op := range txn.Ops {
			if op.Delta != 0 {
				out = append(out, effect{op.Table, op.Ord, op.Delta})
			}
		}
		return out
	}
	type row struct {
		table odb.TableID
		ord   uint64
	}
	var touched []row
	seen := make(map[row]bool)
	blocks := make(map[odb.BlockID]bool)

	txns := 0
	apply := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			bt, lt := bgen.Next(txns%warehouses), lgen.Next(txns%warehouses)
			txns++
			be, le := effects(bt), effects(lt)
			if len(be) != len(le) {
				t.Fatalf("txn %d (%v): btree program has %d row effects, lsm %d", txns, bt.Type, len(be), len(le))
			}
			for j := range be {
				if be[j] != le[j] {
					t.Fatalf("txn %d (%v) effect %d: btree %+v, lsm %+v", txns, bt.Type, j, be[j], le[j])
				}
				r := row{be[j].table, be[j].ord}
				if !seen[r] {
					seen[r] = true
					touched = append(touched, r)
					blocks[layout.Heap(r.table).Block(r.ord)] = true
				}
			}
			bstore.ApplyTxn(bt)
			lstore.ApplyTxn(lt)
			bgen.Recycle(bt)
			lgen.Recycle(lt)
		}
	}
	compare := func(phase string) {
		t.Helper()
		for _, r := range touched {
			if b, l := bstore.Counter(r.table, r.ord), lstore.Counter(r.table, r.ord); b != l {
				t.Fatalf("after %s (%d txns): row %v/%d reads %d in the btree store, %d in the lsm store",
					phase, txns, r.table, r.ord, b, l)
			}
		}
	}

	for round := 0; round < 4; round++ {
		apply(300)
		compare("apply")
		if round%2 == 0 {
			bstore.Checkpoint()
			lstore.Flush()
			compare("checkpoint/flush")
		}
		// More work, then a crash with it unflushed. The crashed images
		// differ by design: the B-tree store has written evicted dirty
		// pages to disk, while the LSM memtable reaches its durable image
		// only on a flush. Rows are compared once recovery has replayed
		// the logs. (Comparing first would read every touched page back
		// through the small cache and leave it clean.)
		apply(200)
		bstore.Crash()
		lstore.Crash()
		if bn, ln := bstore.Recover(), lstore.Recover(); bn == 0 || ln == 0 {
			t.Fatalf("round %d: recovery replayed %d btree and %d lsm records, want both > 0", round, bn, ln)
		}
		compare("crash and recovery")
	}
	if len(blocks) <= cacheBlocks {
		t.Fatalf("%d distinct blocks touched, want more than the %d-block cache so pages are evicted", len(blocks), cacheBlocks)
	}
}

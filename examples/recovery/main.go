// Recovery demonstrates that the substrate under the simulation is a
// genuinely functional database engine: it executes the ODB transaction
// mix against real 8 KB pages through the buffer cache, writes redo ahead
// of data, survives a crash that destroys every buffered page, and
// recovers by replaying the log — verifying monetary conservation
// invariants before and after.
package main

import (
	"fmt"
	"log"

	"odbscale/internal/odb"
	"odbscale/internal/xrand"
)

const warehouses = 3

func main() {
	layout := odb.NewLayout(warehouses)
	fmt.Printf("database: %d warehouses, %.0f MB across %d blocks\n",
		warehouses, layout.SizeMB(), layout.TotalBlocks())

	// A deliberately tiny buffer cache forces dirty evictions, so pages
	// constantly travel buffer -> disk image and back while running.
	store := odb.NewStore(layout, 128)
	gen := odb.NewGenerator(layout, xrand.New(42))

	const txns = 5000
	for i := 0; i < txns; i++ {
		store.ApplyTxn(gen.Next(i % warehouses))
	}
	fmt.Printf("executed %d transactions, redo log holds %d records\n", txns, store.LogLen())

	before := conservation(store)
	fmt.Printf("before crash: warehouse YTD total = %d cents (== district YTD: %v)\n",
		before.warehouseYTD, before.warehouseYTD == before.districtYTD)
	if before.warehouseYTD != before.districtYTD {
		log.Fatal("conservation violated before crash")
	}

	// Take a mid-stream checkpoint, run more work, then crash: everything
	// buffered since the checkpoint is lost.
	store.Checkpoint()
	for i := 0; i < 1000; i++ {
		store.ApplyTxn(gen.Next(i % warehouses))
	}
	after := conservation(store)
	store.Crash()
	fmt.Println("crash: all buffered pages destroyed")

	applied := store.Recover()
	fmt.Printf("recovery replayed %d redo records\n", applied)

	recovered := conservation(store)
	if recovered != after {
		log.Fatalf("state after recovery %+v != state before crash %+v", recovered, after)
	}
	fmt.Printf("after recovery: warehouse YTD total = %d cents — identical to pre-crash state\n",
		recovered.warehouseYTD)

	// Idempotence: recovering again must change nothing.
	store.Crash()
	if again := store.Recover(); again != 0 {
		log.Fatalf("second recovery applied %d records, want 0", again)
	}
	fmt.Println("second recovery applied 0 records (LSNs make replay idempotent)")
}

type totals struct {
	warehouseYTD int64
	districtYTD  int64
}

func conservation(s *odb.Store) totals {
	var t totals
	for w := 0; w < warehouses; w++ {
		t.warehouseYTD += s.Counter(odb.TableWarehouse, uint64(w))
		for d := 0; d < 10; d++ {
			t.districtYTD += s.Counter(odb.TableDistrict, uint64(w*10+d))
		}
	}
	return t
}

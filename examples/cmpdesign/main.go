// Cmpdesign runs the design study the paper's introduction motivates:
// how would OLTP behave on chip multiprocessors? It sweeps the processor
// count and the L3 capacity at a fixed, representative workload size and
// reports throughput scaling, coherence traffic and bus pressure — the
// quantities behind the paper's conclusion that coherence is not the
// bottleneck, but cache capacity and bandwidth are.
package main

import (
	"context"
	"fmt"
	"log"

	"odbscale/internal/system"
)

func main() {
	const w = 200 // beyond the pivot: scaled-setup behaviour
	fmt.Printf("CMP design study at %d warehouses (scaled setup)\n\n", w)

	fmt.Println("processor scaling on the stock platform (1 MB L3, shared FSB):")
	fmt.Println("P   clients  TPS    speedup  CPI    bus-util  coherence-share")
	var base float64
	for i, p := range []int{1, 2, 4, 8} {
		m := runPoint(w, p, 0)
		if i == 0 {
			base = m.TPS
		}
		fmt.Printf("%-3d %-8d %-6.0f %-8.2f %-6.2f %-9.2f %.4f\n",
			p, m.Clients, m.TPS, m.TPS/base, m.CPI, m.BusUtil, m.CoherenceShare)
	}
	fmt.Println("\nspeedup falls away from linear as the shared bus queues up, not")
	fmt.Println("because of coherence — exactly the paper's CMP argument.")

	fmt.Println("\nL3 capacity scaling at 4P:")
	fmt.Println("L3(MB)  TPS    CPI    MPI      L3-share-of-CPI")
	for _, mb := range []int{1, 2, 4, 8} {
		m := runPoint(w, 4, mb)
		fmt.Printf("%-7d %-6.0f %-6.2f %-8.4f %.2f\n",
			mb, m.TPS, m.CPI, m.MPI, m.Breakdown.L3/m.Breakdown.Total())
	}
	fmt.Println("\nadded capacity buys back most of the memory stall — the paper's")
	fmt.Println("closing recommendation: grow or better use the L3, don't chase")
	fmt.Println("coherence optimizations.")
}

func runPoint(w, p, l3MB int) system.Metrics {
	c := system.HeuristicClients(w, p)
	cfg := system.DefaultConfig(w, c, p)
	cfg.MeasureTxns = 1500
	if l3MB > 0 {
		cfg.Machine.Geometry.L3Size = l3MB << 20
		if l3MB == 3 {
			cfg.Machine.Geometry.L3Ways = 12
		}
	}
	m, err := system.Run(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	return m
}

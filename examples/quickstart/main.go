// Quickstart: simulate one OLTP configuration on the paper's Xeon
// platform and decompose its throughput with the iron law of database
// performance.
package main

import (
	"context"
	"fmt"
	"log"

	"odbscale/internal/core"
	"odbscale/internal/system"
)

func main() {
	// 100 warehouses, 32 clients, 4 processors — a mid-sized setup near
	// the cached-to-scaled transition.
	cfg := system.DefaultConfig(100, 32, 4)
	m, err := system.Run(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("configuration: %d warehouses, %d clients, %d processors on %s\n",
		m.Warehouses, m.Clients, m.Processors, cfg.Machine.Name)
	fmt.Printf("throughput:    %.0f transactions/second (%.0f measured over %.2f s)\n",
		m.TPS, float64(m.Txns), m.ElapsedSeconds)

	law := core.IronLaw{
		Processors:  m.Processors,
		FrequencyHz: cfg.Machine.FreqHz,
		IPX:         m.IPX,
		CPI:         m.CPI,
		Utilization: m.CPUUtil,
	}
	fmt.Printf("iron law:      %s\n", law)
	if err := law.Verify(m.TPS, 0.02); err != nil {
		log.Fatal(err)
	}
	fmt.Println("               (measured TPS satisfies the iron law)")

	fmt.Printf("path length:   IPX = %.2fM (user %.2fM + OS %.2fM)\n",
		m.IPX/1e6, m.UserIPX/1e6, m.OSIPX/1e6)
	fmt.Printf("cycle cost:    CPI = %.2f, of which L3 misses contribute %.0f%%\n",
		m.CPI, 100*m.Breakdown.L3/m.Breakdown.Total())
	fmt.Printf("memory:        L3 MPI = %.4f, buffer cache hit ratio = %.3f\n",
		m.MPI, m.BufferHitRatio)
	fmt.Printf("system:        CPU util = %.2f, ctx switches/txn = %.1f, read KB/txn = %.1f\n",
		m.CPUUtil, m.CtxSwitchPerTxn, m.ReadKBPerTxn)
	fmt.Printf("breakdown:     %s\n", m.Breakdown)
}

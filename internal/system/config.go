// Package system composes the substrates — the ODB engine, buffer cache,
// disk array, cache hierarchy, bus, OS scheduler and reference
// synthesizer — into a complete machine simulation. Run executes one OLTP
// configuration (warehouses, clients, processors) through warm-up and a
// measurement period and returns the metrics the paper's figures report.
package system

import (
	"odbscale/internal/bus"
	"odbscale/internal/cache"
	"odbscale/internal/cpu"
	"odbscale/internal/engine"
	"odbscale/internal/storage"
	"odbscale/internal/workload"
)

// MachineConfig describes the hardware platform.
type MachineConfig struct {
	Name     string
	FreqHz   float64 // CPU clock
	Geometry cache.Geometry
	Bus      bus.Config
	Disks    storage.Config
	// BufferCacheMB is the SGA database buffer cache capacity (the paper
	// uses 2.8 GB of the 4 GB system for it on the Xeon platform).
	BufferCacheMB int
	Stall         cpu.StallCosts
}

// XeonQuad returns the paper's experimental platform: a 4-way 1.6 GHz
// Intel Xeon MP server with 1 MB L3s, a shared front-side bus and 26
// SCSI disks.
func XeonQuad() MachineConfig {
	return MachineConfig{
		Name:          "xeon-quad",
		FreqHz:        1.6e9,
		Geometry:      cache.XeonGeometry(),
		Bus:           bus.DefaultConfig(),
		Disks:         storage.DefaultConfig(),
		BufferCacheMB: 2867, // 2.8 GB
		Stall:         cpu.Table3Costs(),
	}
}

// Itanium2Quad returns the validation platform of Section 6.3: 3 MB L3s,
// about 50% more bus bandwidth, 16 GB of memory and 34 disks.
func Itanium2Quad() MachineConfig {
	m := XeonQuad()
	m.Name = "itanium2-quad"
	m.FreqHz = 1.5e9
	m.Geometry = cache.Itanium2Geometry()
	m.Bus.BandwidthScale = 1.5
	m.Disks.DataDisks = 32
	m.Disks.LogDisks = 2
	m.BufferCacheMB = 12288 // a 16 GB system leaves ~12 GB for the SGA
	return m
}

// Tuning holds the software-model parameters. They are calibration
// constants, not measurements; DESIGN.md documents the role of each.
type Tuning struct {
	Scale uint64 // scaled-system simulation factor

	QuantumInstr    uint64 // OS time slice in instructions (~10 ms)
	ChunkInstr      uint64 // simulation granularity: max chunk size
	CtxSwitchInstr  uint64 // OS path length per context switch
	IOIssueInstr    uint64 // OS path length to submit one disk read
	IOCompleteInstr uint64 // OS interrupt/completion path per read
	PerTxnOSInstr   uint64 // fixed OS work per transaction (IPC, syscalls)
	DBWriterInstr   uint64 // OS path per DB-writer page write
	LogInstrPerKB   uint64 // log-writer path per KB of redo

	DBWriterIntervalMS float64
	DBWriterBatch      int
	DirtyHighWater     float64 // dirty fraction that triggers the DB writer
	DBWriterAgeGets    uint64  // a dirty block must cool off this many gets before writing

	// Block-contention model ("buffer busy waits"): the probability a
	// hot-block access must wait is ContentionAlpha*(clients-1)/(hot
	// blocks), capped; hot blocks scale with the warehouse count.
	ContentionAlpha   float64
	ContentionCap     float64
	HotBlocksPerWhs   float64
	HotBytesPerWhs    int // structural hot-set growth per warehouse
	BusyWaitMS        float64
	OtherCPI          float64 // flat residual stall cycles per instruction
	StockLevelScan    int
	Synth             workload.Config
	PrefillSampleTxns int // generator draws used to rank blocks for prefill

	// LSM holds the LSM engine's shape and background-bandwidth knobs;
	// ignored by the B-tree engine.
	LSM engine.LSMTuning
}

// DefaultTuning returns the calibrated defaults.
func DefaultTuning() Tuning {
	return Tuning{
		Scale:              64,
		QuantumInstr:       16_000_000,
		ChunkInstr:         120_000,
		CtxSwitchInstr:     12_000,
		IOIssueInstr:       36_000,
		IOCompleteInstr:    26_000,
		PerTxnOSInstr:      32_000,
		DBWriterInstr:      9_000,
		LogInstrPerKB:      1_500,
		DBWriterIntervalMS: 20,
		DBWriterBatch:      64,
		DirtyHighWater:     0.002,
		DBWriterAgeGets:    50_000,
		ContentionAlpha:    35,
		ContentionCap:      0.75,
		HotBlocksPerWhs:    22,
		HotBytesPerWhs:     10 << 10,
		BusyWaitMS:         0.35,
		OtherCPI:           0.35,
		StockLevelScan:     60,
		Synth:              workload.DefaultConfig(64),
		PrefillSampleTxns:  12_000,
		LSM:                engine.DefaultLSMTuning(),
	}
}

// HeuristicClients estimates a client count that keeps CPU utilization
// high for a configuration, approximating Table 1's tuned values; the
// experiment package's auto-tuner refines it.
func HeuristicClients(w, p int) int {
	c := 2*p + w*p/22
	if c < 8 {
		c = 8
	}
	if c > 64 {
		c = 64
	}
	return c
}

// Config is one experiment configuration.
type Config struct {
	Warehouses int
	Clients    int
	Processors int
	Seed       int64

	// Engine names the storage engine (see internal/engine's registry);
	// empty means the default B-tree engine.
	Engine string

	Machine MachineConfig
	Tuning  Tuning

	Coherent bool // MESI snooping on (ablation switch)

	WarmupTxns  int
	MeasureTxns int
}

// DefaultConfig returns a ready-to-run configuration on the Xeon platform.
func DefaultConfig(w, c, p int) Config {
	return Config{
		Warehouses:  w,
		Clients:     c,
		Processors:  p,
		Seed:        1,
		Machine:     XeonQuad(),
		Tuning:      DefaultTuning(),
		Coherent:    true,
		WarmupTxns:  600,
		MeasureTxns: 2400,
	}
}

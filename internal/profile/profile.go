// Package profile is the deterministic cycle-attribution profiler: it
// tags every simulated cycle and cache/TLB/branch event with a
// (transaction type, engine phase, user/OS mode) frame and accumulates
// them into a hierarchical profile.
//
// Attribution is observational: the system layer synthesizes and prices
// each executed chunk exactly as it would without profiling, then hands
// the collector the chunk's instruction shares per frame together with
// the chunk's total cycles and event counts. The collector apportions
// the totals across the frames with cumulative (largest-remainder)
// rounding, so per-frame counts sum exactly to the chunk totals and a
// profiled run's metrics stay bit-identical to an unprofiled one — the
// profiler draws no randomness and perturbs no simulation state.
//
// Frames aggregate into a Profile that exports three ways: a per-phase
// CPI-breakdown table reproducing the paper's Figure 12-style event
// decomposition, folded-stack output for standard flame-graph tooling,
// and a pprof-style plain-text listing. Diff compares two profiles —
// two runs, or two sweep points across the cached-to-scaled pivot.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"odbscale/internal/cpu"
	"odbscale/internal/odb"
)

// Mode separates user-space database work from OS-space kernel work.
type Mode uint8

// The two execution modes.
const (
	User Mode = iota
	OS
	numModes
)

func (m Mode) String() string {
	if m == User {
		return "user"
	}
	return "os"
}

// Kind is the transaction context of a frame: the five ODB transaction
// types, the background DB writer, anonymous kernel work with no
// transaction attached (context switches, completions between
// transactions), and idle.
type Kind uint8

// Kinds beyond the five odb.TxnType values.
const (
	KindDBWriter Kind = Kind(odb.StockLevel) + 1 + iota
	KindKernel
	KindIdle
	numKinds
)

// KindOf maps a transaction type onto its frame kind.
func KindOf(t odb.TxnType) Kind { return Kind(t) }

func (k Kind) String() string {
	switch {
	case k < KindDBWriter:
		return odb.TxnType(k).String()
	case k == KindDBWriter:
		return "DBWriter"
	case k == KindKernel:
		return "(kernel)"
	default:
		return "(idle)"
	}
}

// Share is one frame's instruction share of a chunk.
type Share struct {
	Kind  Kind
	Phase odb.Phase
	Instr uint64
}

// acc is one frame's running totals (events still scaled).
type acc struct {
	instr  uint64
	cycles float64
	ev     cpu.Events
}

// Meta describes the run a profile was captured from.
type Meta struct {
	Label          string         `json:"label"`
	Warehouses     int            `json:"warehouses"`
	Clients        int            `json:"clients"`
	Processors     int            `json:"processors"`
	Seed           int64          `json:"seed"`
	Scale          uint64         `json:"scale"`
	FreqHz         float64        `json:"freq_hz"`
	OtherCPI       float64        `json:"other_cpi"`
	Stall          cpu.StallCosts `json:"stall"`
	ElapsedSeconds float64        `json:"elapsed_seconds"`
	Txns           uint64         `json:"txns"`
}

// Collector accumulates frames during a run. The system layer writes on
// simulated time; Profile reads the frames, under the mutex, once the
// run is over.
type Collector struct {
	mu     sync.Mutex
	meta   Meta
	frames [numKinds][odb.NumPhases][numModes]acc
	idle   float64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// SetMeta installs the run description; the system layer calls it
// before the run, and Finalize fills in the measured length at its end.
func (c *Collector) SetMeta(m Meta) {
	c.mu.Lock()
	defer c.mu.Unlock()
	elapsed, txns := c.meta.ElapsedSeconds, c.meta.Txns
	c.meta = m
	//lint:ignore floateq zero is the unset sentinel, not a computed value
	if m.ElapsedSeconds == 0 {
		c.meta.ElapsedSeconds = elapsed
	}
	if m.Txns == 0 {
		c.meta.Txns = txns
	}
}

// AddChunk apportions one priced chunk across its frames. shares must
// sum to totalInstr; cycles and every event count are distributed
// proportionally to the instruction shares with cumulative rounding, so
// the per-frame pieces sum exactly to the chunk totals (integer counts
// exactly, floats by telescoping). Shares are processed in slice order,
// which the caller keeps deterministic. The events are scaled, as the
// workload synthesizer reports them.
func (c *Collector) AddChunk(mode Mode, shares []Share, totalInstr uint64, cycles float64, ev cpu.Events) {
	if totalInstr == 0 || len(shares) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var cum uint64
	var prevCycles, prevBus float64
	var prevEv [6]uint64
	counts := [6]uint64{ev.TCMiss, ev.L2Miss, ev.L3Miss, ev.CoherMiss, ev.TLBMiss, ev.Mispred}
	for _, s := range shares {
		cum += s.Instr
		a := &c.frames[s.Kind][s.Phase][mode]
		a.instr += s.Instr
		frac := float64(cum) / float64(totalInstr)
		cutCycles := cycles * frac
		a.cycles += cutCycles - prevCycles
		prevCycles = cutCycles
		cutBus := ev.BusLatency * frac
		a.ev.BusLatency += cutBus - prevBus
		prevBus = cutBus
		var cut [6]uint64
		for i, n := range counts {
			cut[i] = n * cum / totalInstr
		}
		a.ev.TCMiss += cut[0] - prevEv[0]
		a.ev.L2Miss += cut[1] - prevEv[1]
		a.ev.L3Miss += cut[2] - prevEv[2]
		a.ev.CoherMiss += cut[3] - prevEv[3]
		a.ev.TLBMiss += cut[4] - prevEv[4]
		a.ev.Mispred += cut[5] - prevEv[5]
		prevEv = cut
	}
}

// SetIdle records the measurement period's idle cycles (summed across
// CPUs); they become the (idle, idle, os) frame.
func (c *Collector) SetIdle(cycles float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idle = cycles
}

// Finalize closes the profile with the run's measured length.
func (c *Collector) Finalize(elapsedSeconds float64, txns uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.meta.ElapsedSeconds = elapsedSeconds
	c.meta.Txns = txns
}

// FrameCounters is one frame of a finished profile. Event counts are
// real (the collector's scaled counts multiplied by the scale factor),
// so per-instruction rates divide directly.
type FrameCounters struct {
	Txn   string `json:"txn"`
	Phase string `json:"phase"`
	Mode  string `json:"mode"`

	Instr      uint64  `json:"instr"`
	Cycles     float64 `json:"cycles"`
	TCMiss     uint64  `json:"tc_miss"`
	L2Miss     uint64  `json:"l2_miss"`
	L3Miss     uint64  `json:"l3_miss"`
	CoherMiss  uint64  `json:"coher_miss"`
	TLBMiss    uint64  `json:"tlb_miss"`
	Mispred    uint64  `json:"mispred"`
	BusLatency float64 `json:"bus_latency"`
}

// Profile is the hierarchical cycle-attribution result of one run.
type Profile struct {
	Meta   Meta            `json:"meta"`
	Frames []FrameCounters `json:"frames"`
}

// Profile snapshots the collector into a Profile: non-empty frames in
// deterministic (kind, phase, mode) order, scaled event counts
// converted to real ones.
func (c *Collector) Profile() *Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	scale := c.meta.Scale
	if scale == 0 {
		scale = 1
	}
	p := &Profile{Meta: c.meta}
	for k := Kind(0); k < numKinds; k++ {
		for ph := odb.Phase(0); ph < odb.NumPhases; ph++ {
			for m := Mode(0); m < numModes; m++ {
				a := c.frames[k][ph][m]
				if k == KindIdle && ph == odb.PhaseIdle && m == OS {
					a.cycles += c.idle
				}
				//lint:ignore floateq an untouched accumulator is exactly zero
				if a.instr == 0 && a.cycles == 0 {
					continue
				}
				p.Frames = append(p.Frames, FrameCounters{
					Txn:        k.String(),
					Phase:      ph.String(),
					Mode:       m.String(),
					Instr:      a.instr,
					Cycles:     a.cycles,
					TCMiss:     a.ev.TCMiss * scale,
					L2Miss:     a.ev.L2Miss * scale,
					L3Miss:     a.ev.L3Miss * scale,
					CoherMiss:  a.ev.CoherMiss * scale,
					TLBMiss:    a.ev.TLBMiss * scale,
					Mispred:    a.ev.Mispred * scale,
					BusLatency: a.ev.BusLatency * float64(scale),
				})
			}
		}
	}
	return p
}

// Idle reports whether a frame is the idle frame (no instructions, not
// part of the CPI accounting).
func (f *FrameCounters) Idle() bool { return f.Phase == odb.PhaseIdle.String() }

// TotalInstr sums instructions over every frame.
func (p *Profile) TotalInstr() uint64 {
	var n uint64
	for i := range p.Frames {
		n += p.Frames[i].Instr
	}
	return n
}

// TotalCycles sums busy cycles over every non-idle frame.
func (p *Profile) TotalCycles() float64 {
	var c float64
	for i := range p.Frames {
		if !p.Frames[i].Idle() {
			c += p.Frames[i].Cycles
		}
	}
	return c
}

// CPI is the profile's whole-run cycles per instruction; by
// construction it reproduces the run's measured CPI.
func (p *Profile) CPI() float64 {
	instr := p.TotalInstr()
	if instr == 0 {
		return 0
	}
	return p.TotalCycles() / float64(instr)
}

// sortFrames orders frames deterministically for encoding and merge.
func sortFrames(frames []FrameCounters) {
	sort.Slice(frames, func(i, j int) bool {
		a, b := &frames[i], &frames[j]
		if a.Txn != b.Txn {
			return a.Txn < b.Txn
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		return a.Mode < b.Mode
	})
}

// Encode writes the profile as indented JSON.
func (p *Profile) Encode(w io.Writer) error {
	sortFrames(p.Frames)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(p)
}

// Decode reads a profile written by Encode.
func Decode(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("profile: decoding: %w", err)
	}
	return &p, nil
}

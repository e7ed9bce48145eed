// Package osker models the operating system's scheduling behaviour: a
// FIFO ready queue feeding P processors, round-robin time slices,
// blocking and wakeup for I/O and lock waits, and context-switch
// accounting. The paper attributes most OS-space path length to the disk
// I/O code path and the scheduler; this package provides the scheduling
// half, with the I/O path costs charged by the system layer through the
// run callbacks.
//
// The scheduler is driven by the discrete-event engine: the system layer
// supplies a RunFunc that executes one chunk of a process's work and
// reports how many cycles it took; the scheduler sequences chunks,
// charges context switches, enforces the time slice and tracks busy and
// idle cycles per CPU.
package osker

import (
	"fmt"

	"odbscale/internal/qstats"
	"odbscale/internal/sim"
)

// State is a process state.
type State uint8

// Process states.
const (
	Ready State = iota
	Running
	Blocked
)

// Proc is a schedulable process (an ODB server process).
type Proc struct {
	ID    int
	Data  any // the system layer's per-process payload
	state State

	quantumUsed uint64
	pendingWake bool
	readyAt     sim.Time // when the process last entered the ready queue

	// Episode accumulators for the queueing observatory: one episode
	// spans wake/admit to block, possibly through several dispatches and
	// preemptions. epWait sums ready-but-undispatched cycles, epBusy the
	// on-CPU cycles (including charged context switches); both fold into
	// the CPU station when the episode ends.
	epWait float64
	epBusy float64
}

// State returns the process's scheduling state.
func (p *Proc) State() State { return p.state }

// ReadyAt returns the simulated time the process last became ready —
// the boundary the span tracer uses to split a scheduling gap into
// resource wait (blocked, before readyAt) and run-queue wait (ready but
// undispatched, after readyAt).
func (p *Proc) ReadyAt() sim.Time { return p.readyAt }

// Outcome reports what one executed chunk did.
type Outcome struct {
	Cycles sim.Time // wall-cycle duration of the chunk
	Instr  uint64   // instructions consumed (counted against the quantum)
	Block  bool     // the process must block; Wake will be called later
}

// RunFunc executes the next chunk of p on cpu with at most budget
// instructions and returns its outcome. It must not call back into the
// scheduler synchronously.
type RunFunc func(p *Proc, cpu int, budget uint64) Outcome

// SwitchFunc charges one context switch on cpu (the system layer runs the
// OS switch path through the caches) and returns its duration in cycles.
type SwitchFunc func(p *Proc, cpu int) sim.Time

// Config parameterizes the scheduler.
type Config struct {
	CPUs         int
	QuantumInstr uint64 // time slice, in instructions
}

// Stats aggregates scheduler behaviour.
type Stats struct {
	ContextSwitches uint64
	Preemptions     uint64
	Blocks          uint64
	Wakeups         uint64
	IdleCycles      float64 // summed across CPUs
	BusyCycles      float64 // summed across CPUs
}

type cpuState struct {
	current   *Proc
	last      *Proc // process that ran most recently on this CPU
	idleSince sim.Time
	idle      bool
	busy      float64 // busy cycles on this CPU since the last ResetStats

	// At most one chunk is in flight per CPU, so its completion context
	// lives here instead of in a per-event closure: index identifies the
	// CPU to the typed engine callbacks, pendingOut carries the outcome
	// from step to finish.
	index      int
	pendingOut Outcome
}

// Scheduler sequences processes over CPUs.
type Scheduler struct {
	eng   *sim.Engine
	cfg   Config
	run   RunFunc
	sw    SwitchFunc
	cpus  []cpuState
	ready []*Proc

	// Method-value callbacks bound once so per-chunk scheduling through
	// the engine allocates nothing.
	stepCb   func(any)
	finishCb func(any)

	stats   Stats
	resetAt sim.Time
	stopped bool

	qs *qstats.Station // optional CPU service-center accumulator
}

// New builds a scheduler. All CPUs start idle.
func New(eng *sim.Engine, cfg Config, run RunFunc, sw SwitchFunc) *Scheduler {
	if cfg.CPUs < 1 || cfg.QuantumInstr == 0 {
		panic("osker: bad config")
	}
	if run == nil {
		panic("osker: nil RunFunc")
	}
	s := &Scheduler{eng: eng, cfg: cfg, run: run, sw: sw, cpus: make([]cpuState, cfg.CPUs)}
	for i := range s.cpus {
		s.cpus[i].idle = true
		s.cpus[i].index = i
	}
	s.stepCb = s.stepCall
	s.finishCb = s.finishCall
	return s
}

// SetStation attaches the queueing observatory's CPU station. Purely
// observational: the scheduler only accumulates into it, never reads
// it.
func (s *Scheduler) SetStation(st *qstats.Station) { s.qs = st }

// Admit adds a new process to the ready queue and kicks an idle CPU.
func (s *Scheduler) Admit(p *Proc) {
	p.state = Ready
	p.readyAt = s.eng.Now()
	if s.qs != nil {
		s.qs.Arrive()
	}
	s.ready = append(s.ready, p)
	s.kick()
}

// Wake moves a blocked process back to the ready queue. Waking a process
// whose blocking chunk has not finished yet (the resource came back
// faster than the chunk's simulated duration) marks it for immediate
// readiness when the block takes effect.
func (s *Scheduler) Wake(p *Proc) {
	s.stats.Wakeups++
	if p.state != Blocked {
		if p.pendingWake {
			panic(fmt.Sprintf("osker: double wake of process %d", p.ID))
		}
		p.pendingWake = true
		return
	}
	p.state = Ready
	p.readyAt = s.eng.Now()
	if s.qs != nil {
		s.qs.Arrive()
	}
	s.ready = append(s.ready, p)
	s.kick()
}

// Stop prevents any further dispatching (end of simulation).
func (s *Scheduler) Stop() { s.stopped = true }

// kick dispatches ready work onto idle CPUs.
func (s *Scheduler) kick() {
	for i := range s.cpus {
		if len(s.ready) == 0 {
			return
		}
		if s.cpus[i].idle && s.cpus[i].current == nil {
			s.dispatch(i, nil)
		}
	}
}

// dispatch pops the ready queue onto cpu and starts its first chunk,
// preferring the process that last ran here (cache affinity, as the Linux
// scheduler does). A just-preempted process is passed as except so that
// affinity cannot override round-robin fairness.
func (s *Scheduler) dispatch(cpu int, except *Proc) {
	if s.stopped {
		return
	}
	c := &s.cpus[cpu]
	if len(s.ready) == 0 {
		if !c.idle {
			c.idle = true
			c.idleSince = s.eng.Now()
		}
		return
	}
	wasIdle := c.idle
	if c.idle {
		s.stats.IdleCycles += float64(s.eng.Now() - c.idleSince)
		c.idle = false
	}
	pick := 0
	if c.last != except {
		for i, cand := range s.ready {
			if cand == c.last {
				pick = i
				break
			}
		}
	}
	p := s.ready[pick]
	s.ready = append(s.ready[:pick], s.ready[pick+1:]...)
	p.state = Running
	p.quantumUsed = 0
	c.current = p
	if s.qs != nil {
		// Run-queue wait since the process became ready, clamped to the
		// measurement window so episodes in flight at reset don't leak
		// pre-window cycles into the station.
		start := p.readyAt
		if start < s.resetAt {
			start = s.resetAt
		}
		p.epWait += float64(s.eng.Now() - start)
	}

	// A dispatch counts as a context switch when a different process
	// enters than the one that last ran here; the departure side of a
	// blocking process was already counted when it blocked.
	_ = wasIdle
	var switchCost sim.Time
	if c.last != p {
		s.stats.ContextSwitches++
		if s.sw != nil {
			switchCost = s.sw(p, cpu)
			s.stats.BusyCycles += float64(switchCost)
			c.busy += float64(switchCost)
			p.epBusy += float64(switchCost)
		}
	}
	c.last = p
	s.eng.AfterCall(switchCost, s.stepCb, c)
}

// stepCall is the typed-callback entry for a dispatched chunk: the CPU's
// current process starts its next chunk.
func (s *Scheduler) stepCall(arg any) {
	c := arg.(*cpuState)
	s.step(c.index, c.current)
}

// step runs one chunk of p on cpu and schedules the follow-up.
func (s *Scheduler) step(cpu int, p *Proc) {
	if s.stopped {
		return
	}
	budget := s.cfg.QuantumInstr - p.quantumUsed
	out := s.run(p, cpu, budget)
	s.stats.BusyCycles += float64(out.Cycles)
	c := &s.cpus[cpu]
	c.busy += float64(out.Cycles)
	p.epBusy += float64(out.Cycles)
	p.quantumUsed += out.Instr
	c.pendingOut = out
	s.eng.AfterCall(out.Cycles, s.finishCb, c)
}

// finishCall completes a chunk at its simulated end time: block, preempt
// or continue, per the outcome stashed on the CPU by step.
func (s *Scheduler) finishCall(arg any) {
	if s.stopped {
		return
	}
	c := arg.(*cpuState)
	cpu := c.index
	p := c.current
	out := c.pendingOut
	switch {
	case out.Block:
		s.stats.Blocks++
		s.stats.ContextSwitches++ // the process switches off the CPU
		c.current = nil
		if s.qs != nil {
			// The episode ends where the process leaves the CPU.
			s.qs.Complete(p.epWait, p.epBusy)
			p.epWait = 0
			p.epBusy = 0
		}
		if p.pendingWake {
			p.pendingWake = false
			p.state = Ready
			p.readyAt = s.eng.Now()
			if s.qs != nil {
				s.qs.Arrive()
			}
			s.ready = append(s.ready, p)
		} else {
			p.state = Blocked
		}
		s.dispatch(cpu, nil)
	case p.quantumUsed >= s.cfg.QuantumInstr && len(s.ready) > 0:
		// Time slice expired with competitors waiting: preempt.
		s.stats.Preemptions++
		p.state = Ready
		p.readyAt = s.eng.Now()
		c.current = nil
		s.ready = append(s.ready, p)
		s.dispatch(cpu, p)
	default:
		if p.quantumUsed >= s.cfg.QuantumInstr {
			p.quantumUsed = 0 // fresh slice, nobody waiting
		}
		s.step(cpu, p)
	}
}

// IdleCyclesAt returns the idle cycles accumulated across CPUs since
// the last ResetStats, closing out still-open idle periods at now. The
// cycle-attribution profiler reads it at finalize to form the idle
// frame; Utilization derives from the same sum.
func (s *Scheduler) IdleCyclesAt(now sim.Time) float64 {
	idle := s.stats.IdleCycles
	for i := range s.cpus {
		if s.cpus[i].idle {
			since := s.cpus[i].idleSince
			if since < s.resetAt {
				since = s.resetAt
			}
			idle += float64(now - since)
		}
	}
	return idle
}

// Utilization returns mean CPU utilization since the last ResetStats,
// requiring the current time to close out running idle periods.
func (s *Scheduler) Utilization() float64 {
	elapsed := float64(s.eng.Now()-s.resetAt) * float64(s.cfg.CPUs)
	if elapsed <= 0 {
		return 0
	}
	idle := s.IdleCyclesAt(s.eng.Now())
	u := 1 - idle/elapsed
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// Stats returns a copy of the counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// ReadyLen returns the ready-queue length.
func (s *Scheduler) ReadyLen() int { return len(s.ready) }

// PerCPUBusyCycles returns each CPU's busy cycles since the last
// ResetStats. The timeline sampler differences successive readings to
// derive per-CPU utilization.
func (s *Scheduler) PerCPUBusyCycles() []float64 {
	out := make([]float64, len(s.cpus))
	for i := range s.cpus {
		out[i] = s.cpus[i].busy
	}
	return out
}

// ResetStats begins a new measurement period.
func (s *Scheduler) ResetStats() {
	s.stats = Stats{}
	s.resetAt = s.eng.Now()
	for i := range s.cpus {
		s.cpus[i].busy = 0
		if s.cpus[i].idle && s.cpus[i].idleSince < s.resetAt {
			s.cpus[i].idleSince = s.resetAt
		}
		// Episodes in flight at the boundary restart their accumulators
		// so pre-window cycles stay out of the CPU station — and count
		// as arrivals into the fresh window, since the customer is
		// present when observation starts (keeps completions ≤ arrivals
		// for the law audit).
		if p := s.cpus[i].current; p != nil {
			p.epWait = 0
			p.epBusy = 0
			if s.qs != nil {
				s.qs.Arrive()
			}
		}
	}
	for _, p := range s.ready {
		p.epWait = 0
		p.epBusy = 0
		if s.qs != nil {
			s.qs.Arrive()
		}
	}
}

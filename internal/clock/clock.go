// Package clock is the sanctioned wall-clock funnel for the simulator
// packages. The determinism lint rule (odblint) forbids direct
// time.Now/time.Since calls inside internal/{sim,odb,workload,osker,
// system,campaign}: simulated time must come only from the event
// engine, and the one legitimate use of wall time — observability
// (elapsed-time fields on campaign progress events) — must be
// injectable so tests can fake it. A Clock is that injection point.
package clock

import "time"

// A Clock supplies wall time. A nil Clock is not usable; take Wall()
// as the default, or install a fake in tests.
type Clock func() time.Time

// Wall returns the real wall clock.
func Wall() Clock { return time.Now }

// Now returns the clock's current time.
func (c Clock) Now() time.Time { return c() }

// Since returns the elapsed time between t and the clock's current
// time.
func (c Clock) Since(t time.Time) time.Duration { return c().Sub(t) }

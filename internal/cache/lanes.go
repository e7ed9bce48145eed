package cache

import (
	"runtime"
	"sync"
)

// MinParallelCPUs is the domain size at which the parallel snoop lanes
// pay for their fork/join barrier. Below it the per-transaction signal
// and wait cost more than the snoop work they spread out, so callers
// should keep small domains sequential (the system layer does).
const MinParallelCPUs = 16

// lanes parallelizes the remote side of bus transactions (snoops and
// upgrade invalidations) across a fixed set of worker goroutines.
//
// Determinism: each worker owns a fixed, disjoint subset of the domain's
// hierarchies (cpu ≡ worker mod workers), so any given cache is only ever
// mutated by its owning lane. Transactions are serialized by the
// fork/join barrier — the next one cannot start until every lane has
// finished the current one — so each cache observes exactly the same
// operation sequence as under the sequential loop. The per-CPU presence
// bits are merged in ascending CPU order after the join. The result is
// bit-identical to sequential execution for any worker count.
type lanes struct {
	d       *Domain
	workers int
	start   []chan struct{} // one wake channel per worker

	// The transaction being broadcast. Written by the bus side before the
	// fork and read by the lanes after it; the channel send/receive pair
	// and the WaitGroup provide the happens-before edges in both
	// directions.
	line  uint64
	write bool
	skip  int    // requesting CPU; its hierarchy is not snooped
	found []bool // per-CPU presence bits; each lane writes only its own CPUs

	wg sync.WaitGroup
}

// EnableParallelLanes turns on parallel snoop lanes with the given worker
// count (0 selects GOMAXPROCS, capped at the CPU count). It is a no-op on
// single-CPU domains and when lanes are already running. Callers must
// Close the domain when done with it to release the workers.
func (d *Domain) EnableParallelLanes(workers int) {
	if d.par != nil || len(d.CPUs) < 2 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(d.CPUs) {
		workers = len(d.CPUs)
	}
	l := &lanes{
		d:       d,
		workers: workers,
		start:   make([]chan struct{}, workers),
		found:   make([]bool, len(d.CPUs)),
	}
	for i := range l.start {
		l.start[i] = make(chan struct{}, 1)
		go l.run(i)
	}
	d.par = l
}

// ParallelLanes returns the active worker count, 0 when sequential.
func (d *Domain) ParallelLanes() int {
	if d.par == nil {
		return 0
	}
	return d.par.workers
}

// Close releases the lane workers. It is safe on sequential domains and
// may be called more than once.
func (d *Domain) Close() {
	if d.par == nil {
		return
	}
	for _, ch := range d.par.start {
		close(ch)
	}
	d.par = nil
}

// run is one lane: it services its CPUs for every broadcast transaction
// until its wake channel is closed.
func (l *lanes) run(worker int) {
	d := l.d
	for range l.start[worker] {
		for cpu := worker; cpu < len(d.CPUs); cpu += l.workers {
			if cpu == l.skip {
				continue
			}
			h := d.CPUs[cpu]
			if l.write {
				if present, _ := h.l3.Invalidate(l.line); present {
					h.l2.drop(l.line)
					h.tc.drop(l.line)
					l.found[cpu] = true
				}
			} else {
				if present, _ := h.l3.Downgrade(l.line); present {
					l.found[cpu] = true
				}
			}
		}
		l.wg.Done()
	}
}

// broadcast runs one bus transaction across the lanes and reports whether
// any remote hierarchy held the line, merging the per-CPU presence bits
// in fixed CPU order after the join.
func (l *lanes) broadcast(skip int, line uint64, write bool) bool {
	l.skip, l.line, l.write = skip, line, write
	l.wg.Add(l.workers)
	for _, ch := range l.start {
		ch <- struct{}{}
	}
	l.wg.Wait()
	any := false
	for cpu := range l.found {
		if l.found[cpu] {
			any = true
			l.found[cpu] = false
		}
	}
	return any
}

// Package sim provides the discrete-event simulation core that drives the
// whole machine model. Time is measured in CPU clock cycles (the paper's
// Xeon runs at 1.6 GHz, so one simulated second is 1.6e9 cycles). Events
// are callbacks scheduled at absolute cycle times and dispatched in time
// order; ties are broken by scheduling order so runs are deterministic.
//
// The engine is allocation-free in steady state: events live in a pooled,
// index-addressed node arena ordered by a 4-ary heap of indices keyed on
// (when, seq), with a free list recycling fired slots. Cancel marks nodes
// lazily — no reheapify — and canceled nodes are discarded when they reach
// the heap head. Hot callers avoid per-event closure captures with the
// typed-callback form AfterCall, which carries a static func(any) plus
// one payload word.
package sim

import "fmt"

// Time is an absolute simulation time in CPU cycles.
type Time uint64

// node is one pooled event slot. fn1/arg is the typed-callback form used
// by hot paths; fn0 is the closure form of At/After.
type node struct {
	when     Time
	seq      uint64
	gen      uint32
	canceled bool
	fn0      func()
	fn1      func(any)
	arg      any
}

// Event is a handle to a scheduled callback. It is a small value: handles
// stay valid after the event fires (Cancel then becomes a no-op) because
// each pooled slot carries a generation counter that invalidates stale
// handles when the slot is recycled.
type Event struct {
	eng *Engine
	idx int32
	gen uint32
}

// Cancel prevents a pending event from running. Canceling an event that
// has already fired (or was already canceled) is a no-op. The node stays
// queued — lazy deletion — and is discarded without dispatch when it
// reaches the heap head, so Cancel never reheapifies.
func (e Event) Cancel() {
	eng := e.eng
	if eng == nil || e.idx < 0 || int(e.idx) >= len(eng.nodes) {
		return
	}
	nd := &eng.nodes[e.idx]
	if nd.gen != e.gen || nd.canceled {
		return
	}
	nd.canceled = true
	// Drop captured references now; the slot itself is reclaimed when the
	// heap pops it.
	nd.fn0, nd.fn1, nd.arg = nil, nil, nil
}

// Engine is a discrete-event simulator instance.
type Engine struct {
	now   Time
	seq   uint64
	nodes []node  // index-addressed event arena
	heap  []int32 // 4-ary heap of node indices ordered by (when, seq)
	free  []int32 // recycled node slots
}

// New returns an empty engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// less orders two nodes by (when, seq).
func (e *Engine) less(a, b int32) bool {
	na, nb := &e.nodes[a], &e.nodes[b]
	if na.when != nb.when {
		return na.when < nb.when
	}
	return na.seq < nb.seq
}

// siftUp restores heap order upward from position i.
func (e *Engine) siftUp(i int) {
	idx := e.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !e.less(idx, e.heap[parent]) {
			break
		}
		e.heap[i] = e.heap[parent]
		i = parent
	}
	e.heap[i] = idx
}

// siftDown restores heap order downward from the root.
func (e *Engine) siftDown() {
	n := len(e.heap)
	idx := e.heap[0]
	i := 0
	for {
		first := i*4 + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.less(e.heap[c], e.heap[best]) {
				best = c
			}
		}
		if !e.less(e.heap[best], idx) {
			break
		}
		e.heap[i] = e.heap[best]
		i = best
	}
	e.heap[i] = idx
}

// popHead removes the heap head (the caller has already read it).
func (e *Engine) popHead() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown()
	}
}

// release recycles a node slot onto the free list, invalidating handles.
func (e *Engine) release(idx int32) {
	nd := &e.nodes[idx]
	nd.gen++
	nd.fn0, nd.fn1, nd.arg = nil, nil, nil
	e.free = append(e.free, idx)
}

// schedule allocates a node from the pool and pushes it onto the heap.
func (e *Engine) schedule(t Time, fn0 func(), fn1 func(any), arg any) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, e.now))
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.nodes = append(e.nodes, node{})
		idx = int32(len(e.nodes) - 1)
	}
	nd := &e.nodes[idx]
	nd.when, nd.seq, nd.canceled = t, e.seq, false
	nd.fn0, nd.fn1, nd.arg = fn0, fn1, arg
	e.seq++
	e.heap = append(e.heap, idx)
	e.siftUp(len(e.heap) - 1)
	return Event{eng: e, idx: idx, gen: nd.gen}
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a model bug, never a recoverable condition.
func (e *Engine) At(t Time, fn func()) Event { return e.schedule(t, fn, nil, nil) }

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) Event { return e.schedule(e.now+d, fn, nil, nil) }

// AfterCall schedules fn(arg) to run d cycles from now. Unlike After, the
// callback is a static function plus one payload word, so hot paths
// schedule without allocating a closure; pointer-shaped args (and
// integers under 256) do not allocate when boxed.
func (e *Engine) AfterCall(d Time, fn func(any), arg any) Event {
	return e.schedule(e.now+d, nil, fn, arg)
}

// Step dispatches the next pending event, if any, and reports whether one
// ran. Canceled events are discarded without running.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		idx := e.heap[0]
		e.popHead()
		nd := &e.nodes[idx]
		if nd.canceled {
			e.release(idx)
			continue
		}
		e.now = nd.when
		fn0, fn1, arg := nd.fn0, nd.fn1, nd.arg
		e.release(idx)
		if fn1 != nil {
			fn1(arg)
		} else {
			fn0()
		}
		return true
	}
	return false
}

// RunUntil dispatches events until the queue is empty or the next event is
// after the deadline; the clock is then advanced to the deadline. It
// returns the number of events dispatched. Canceled heads are discarded
// without being counted.
func (e *Engine) RunUntil(deadline Time) int {
	n := 0
	for len(e.heap) > 0 {
		idx := e.heap[0]
		nd := &e.nodes[idx]
		if nd.canceled {
			e.popHead()
			e.release(idx)
			continue
		}
		if nd.when > deadline {
			break
		}
		e.Step()
		n++
	}
	if e.now < deadline {
		e.now = deadline
	}
	return n
}

package odb

import "fmt"

// LockClass distinguishes lockable resource types. Ordering matters:
// transactions acquire locks in increasing (class, ordinal) order, which
// makes deadlock impossible.
type LockClass uint8

// Lock classes used by the workload.
const (
	LockWarehouse LockClass = iota
	LockDistrict

	// NumLockClasses bounds the class enum for per-class accounting.
	NumLockClasses = int(iota)
)

// String names the lock class for reports and trace exports.
func (c LockClass) String() string {
	switch c {
	case LockWarehouse:
		return "warehouse"
	case LockDistrict:
		return "district"
	}
	return fmt.Sprintf("class%d", uint8(c))
}

// LockID names one lockable resource.
type LockID struct {
	Class LockClass
	Ord   uint64
}

func (l LockID) String() string { return fmt.Sprintf("%d/%d", l.Class, l.Ord) }

// Less orders LockIDs for the deadlock-free acquisition order.
func (l LockID) Less(o LockID) bool {
	if l.Class != o.Class {
		return l.Class < o.Class
	}
	return l.Ord < o.Ord
}

type lockState struct {
	owner   int
	held    bool
	waiters []waiter
}

type waiter struct {
	owner int
	grant func()
}

// LockStats counts lock manager events.
type LockStats struct {
	Acquires  uint64
	Conflicts uint64 // acquisitions that had to wait
}

// LockManager is an exclusive-mode lock table with FIFO waiters. Owners
// are process identifiers; the grant callback runs when a blocked request
// is eventually granted (the scheduler uses it to wake the process).
type LockManager struct {
	locks map[LockID]*lockState
	free  []*lockState // recycled states; Release parks them, Acquire reuses
	stats LockStats
}

// NewLockManager returns an empty lock table.
func NewLockManager() *LockManager {
	return &LockManager{locks: make(map[LockID]*lockState)}
}

// Acquire requests res for owner. If the lock is free it is granted
// immediately and Acquire reports true; otherwise the request queues and
// grant runs later, after which the lock belongs to owner.
func (m *LockManager) Acquire(res LockID, owner int, grant func()) bool {
	m.stats.Acquires++
	st, ok := m.locks[res]
	if !ok {
		if n := len(m.free); n > 0 {
			st = m.free[n-1]
			m.free = m.free[:n-1]
		} else {
			//lint:ignore hotalloc pool growth: allocates only until the free list covers peak concurrent locks, steady state recycles
			st = &lockState{}
		}
		m.locks[res] = st
	}
	if !st.held {
		st.held = true
		st.owner = owner
		return true
	}
	if st.owner == owner {
		panic(fmt.Sprintf("odb: owner %d re-acquiring lock %v", owner, res))
	}
	m.stats.Conflicts++
	st.waiters = append(st.waiters, waiter{owner: owner, grant: grant})
	return false
}

// Release frees res, granting it to the first waiter if any.
func (m *LockManager) Release(res LockID, owner int) {
	st, ok := m.locks[res]
	if !ok || !st.held || st.owner != owner {
		panic(fmt.Sprintf("odb: release of lock %v not held by %d", res, owner))
	}
	if len(st.waiters) == 0 {
		st.held = false
		delete(m.locks, res)
		m.free = append(m.free, st) // waiters capacity rides along
		return
	}
	next := st.waiters[0]
	st.waiters = st.waiters[1:]
	st.owner = next.owner
	next.grant()
}

// Stats returns the counters.
func (m *LockManager) Stats() LockStats { return m.stats }

// ResetStats zeroes the counters.
func (m *LockManager) ResetStats() { m.stats = LockStats{} }

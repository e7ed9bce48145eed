package odb

// HeldBy reports whether res is currently held by owner.
func (m *LockManager) HeldBy(res LockID, owner int) bool {
	st, ok := m.locks[res]
	return ok && st.held && st.owner == owner
}

// Waiters returns the queue length on res.
func (m *LockManager) Waiters(res LockID) int {
	if st, ok := m.locks[res]; ok {
		return len(st.waiters)
	}
	return 0
}

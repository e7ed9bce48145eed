package campaign

import "sync"

// Store retains one payload per sweep point so a campaign can carry an
// instrument's results through checkpoint/resume and write them out
// when it ends. Keys are the campaign's point names ("W=10,P=1");
// insertion order is preserved for deterministic output. Safe for
// concurrent use.
type Store[T any] struct {
	mu    sync.Mutex
	keys  []string
	byKey map[string]T
}

// NewStore returns an empty store.
func NewStore[T any]() *Store[T] {
	return &Store[T]{byKey: map[string]T{}}
}

// Put stores a point's payload, replacing any previous one.
func (s *Store[T]) Put(key string, v T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byKey[key]; !ok {
		s.keys = append(s.keys, key)
	}
	s.byKey[key] = v
}

// Get returns the payload stored for key, or the zero value.
func (s *Store[T]) Get(key string) T {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byKey[key]
}

// Keys returns the stored point names in insertion order.
func (s *Store[T]) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.keys))
	copy(out, s.keys)
	return out
}

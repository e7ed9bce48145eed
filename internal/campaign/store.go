package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Store retains one payload per sweep point so a campaign can carry an
// instrument's results through checkpoint/resume and serve them live.
// Keys are the campaign's point names ("W=10,P=1"); insertion order is
// preserved for deterministic output. Safe for concurrent use.
type Store[T any] struct {
	field string
	mu    sync.Mutex
	keys  []string
	byKey map[string]T
}

// NewStore returns an empty store whose WriteJSON names each payload
// field (e.g. "profile", "dump", "report").
func NewStore[T any](field string) *Store[T] {
	return &Store[T]{field: field, byKey: map[string]T{}}
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

// WriteJSON writes every stored payload as one indented JSON array of
// {"key": point, <field>: payload} objects, in insertion order — the
// payload of a live endpoint such as /profile.
func (s *Store[T]) WriteJSON(w io.Writer) error {
	keys := s.Keys()
	entries := make([]json.RawMessage, len(keys))
	for i, k := range keys {
		key, err := json.Marshal(k)
		if err != nil {
			return err
		}
		val, err := json.Marshal(s.Get(k))
		if err != nil {
			return fmt.Errorf("campaign: encoding %s %s: %w", s.field, k, err)
		}
		entries[i] = json.RawMessage(fmt.Sprintf(`{"key":%s,%q:%s}`, key, s.field, val))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(entries)
}

package odb

import (
	"encoding/binary"
	"fmt"
	"sort"

	"odbscale/internal/buffercache"
)

// Store is the functional (payload-mode) storage engine: real 8 KB pages
// behind a buffer cache, a persistent block image, and a physical redo
// log with LSNs. It executes the row-level effects carried on transaction
// ops, survives crashes that lose every dirty buffer, and recovers by
// replaying redo — the same write-ahead discipline the paper's log-writer
// process provides for ODB.
//
// Page format: bytes [0,8) hold the page LSN; row slot s occupies bytes
// [8+8s, 16+8s) as a big-endian int64 counter. Only counter rows are
// materialized — enough to express the monetary invariants the recovery
// tests check.
type Store struct {
	L     *Layout
	cache *buffercache.Cache
	disk  map[BlockID][]byte
	redo  []RedoRecord
	lsn   uint64
}

// RedoRecord is one physical redo entry.
type RedoRecord struct {
	LSN   uint64
	Block BlockID
	Slot  int
	Delta int64
}

const pageHeader = 8

// NewStore builds a store over layout l with a buffer cache of the given
// block capacity.
func NewStore(l *Layout, cacheBlocks int) *Store {
	s := &Store{L: l, disk: make(map[BlockID][]byte)}
	s.resetCache(cacheBlocks)
	return s
}

// resetCache replaces the buffer cache with an empty one of the given
// capacity, dropping every buffered page, clean or dirty.
func (s *Store) resetCache(blocks int) {
	s.cache = buffercache.New(buffercache.Config{
		Blocks:    blocks,
		BlockSize: BlockSize,
		Payloads:  true,
	})
}

// Cache exposes the underlying buffer cache (for statistics).
func (s *Store) Cache() *buffercache.Cache { return s.cache }

// LogLen returns the redo log length.
func (s *Store) LogLen() int { return len(s.redo) }

// pin returns the entry for block, faulting it in from disk if needed.
func (s *Store) pin(block BlockID) *buffercache.Entry {
	if e := s.cache.Lookup(block); e != nil {
		return e
	}
	// Install hands out a fresh, zeroed page.
	e, ev := s.cache.Install(block)
	if img, ok := s.disk[block]; ok {
		copy(s.cache.Page(e), img)
	}
	if ev.Valid && ev.Dirty {
		s.flushPage(ev.ID, ev.Data)
	}
	return e
}

func (s *Store) flushPage(id BlockID, data []byte) {
	img := make([]byte, len(data))
	copy(img, data)
	s.disk[id] = img
}

func pageLSN(p []byte) uint64       { return binary.BigEndian.Uint64(p[:pageHeader]) }
func setPageLSN(p []byte, v uint64) { binary.BigEndian.PutUint64(p[:pageHeader], v) }
func slotOffset(slot int) int       { return pageHeader + slot*8 }
func slotValue(p []byte, s int) int64 {
	return int64(binary.BigEndian.Uint64(p[slotOffset(s) : slotOffset(s)+8]))
}
func setSlotValue(p []byte, s int, v int64) {
	binary.BigEndian.PutUint64(p[slotOffset(s):slotOffset(s)+8], uint64(v))
}

// AddCounter applies delta to the row counter (t, ord), logging redo
// before the page is unpinned (write-ahead).
func (s *Store) AddCounter(t TableID, ord uint64, delta int64) {
	h := s.L.Heap(t)
	block := h.Block(ord)
	slot := h.Slot(ord)
	if slotOffset(slot)+8 > BlockSize {
		panic(fmt.Sprintf("odb: slot %d overflows page for %v", slot, t))
	}
	e := s.pin(block)
	s.lsn++
	s.redo = append(s.redo, RedoRecord{LSN: s.lsn, Block: block, Slot: slot, Delta: delta})
	page := s.cache.Page(e)
	setSlotValue(page, slot, slotValue(page, slot)+delta)
	setPageLSN(page, s.lsn)
	s.cache.MarkDirty(e)
	s.cache.Release(e)
}

// Counter reads the current value of the row counter (t, ord).
func (s *Store) Counter(t TableID, ord uint64) int64 {
	h := s.L.Heap(t)
	e := s.pin(h.Block(ord))
	v := slotValue(s.cache.Page(e), h.Slot(ord))
	s.cache.Release(e)
	return v
}

// ApplyTxn executes the row-level effects of a transaction program.
func (s *Store) ApplyTxn(t *Txn) {
	for i := range t.Ops {
		op := &t.Ops[i]
		if op.Kind == OpWrite && op.Delta != 0 {
			s.AddCounter(op.Table, op.Ord, op.Delta)
		}
	}
}

// Checkpoint writes every dirty page to the persistent image. It reads
// the pages without a buffer get, so the cache's statistics and LRU
// order are as they were.
func (s *Store) Checkpoint() int {
	ids := s.cache.CleanAllDirty()
	for _, id := range ids {
		page := s.cache.PageOf(id)
		if page == nil {
			panic("odb: cleaned block vanished")
		}
		s.flushPage(id, page)
	}
	return len(ids)
}

// Crash simulates an instant failure: every buffered page — clean or
// dirty — is lost; only the persistent image and the redo log survive.
func (s *Store) Crash() { s.resetCache(s.cache.Capacity()) }

// Recover replays the redo log against the persistent image, skipping
// records already reflected in a page's LSN, and returns the number of
// records applied. It starts from an empty buffer cache: a page read
// since the crash holds the image from before the replay.
func (s *Store) Recover() int {
	s.resetCache(s.cache.Capacity())
	// Replay in LSN order (the log is already ordered, but be explicit).
	recs := make([]RedoRecord, len(s.redo))
	copy(recs, s.redo)
	sort.Slice(recs, func(i, j int) bool { return recs[i].LSN < recs[j].LSN })
	applied := 0
	for _, r := range recs {
		img, ok := s.disk[r.Block]
		if !ok {
			img = make([]byte, BlockSize)
			s.disk[r.Block] = img
		}
		if pageLSN(img) >= r.LSN {
			continue
		}
		setSlotValue(img, r.Slot, slotValue(img, r.Slot)+r.Delta)
		setPageLSN(img, r.LSN)
		applied++
	}
	return applied
}

package system

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"odbscale/internal/odb"
	"odbscale/internal/xrand"
)

// prefill loads the buffer cache with the blocks a steady-state run keeps
// resident: all of the engine's initial on-disk image when it fits,
// otherwise the most frequently touched blocks of a generator sample,
// ranked by frequency. It returns ctx's error if ctx ends while the
// sample runs.
func (m *machine) prefill(ctx context.Context) error {
	// Prefill installs the whole image or fills the cache, so the cache's
	// index is sized once for that many blocks.
	_, total := m.se.PrefillBlocks()
	m.bc.Reserve(int(min(total, uint64(m.bc.Capacity()))))
	err := m.prefillEach(ctx, func(b odb.BlockID) {
		e, _ := m.bc.Install(b)
		m.bc.Release(e)
	})
	m.bc.ResetStats()
	return err
}

// prefillEach calls install on every block prefill loads, in load order.
// The generator sample polls ctx every prefillPoll transactions and
// returns its error before installing anything.
func (m *machine) prefillEach(ctx context.Context, install func(odb.BlockID)) error {
	base, total := m.se.PrefillBlocks()
	capacity := uint64(m.bc.Capacity())
	if total <= capacity {
		for b := uint64(0); b < total; b++ {
			install(base + odb.BlockID(b))
		}
		return nil
	}
	sample := odb.NewGenerator(m.layout, xrand.New(m.cfg.Seed).Split(77))
	sample.StockLevelScan = m.cfg.Tuning.StockLevelScan
	// The sampler plans through the engine too (its own planner stream),
	// so the ranked blocks are the ones this engine's op streams touch.
	sample.SetPlanner(m.se.Planner(xrand.New(m.cfg.Seed).Split(78)))
	var tally blockTally
	var wide odb.BlockID // every sampled block ORed, to catch one past 32 bits
	for i := 0; i < m.cfg.Tuning.PrefillSampleTxns; i++ {
		if i%prefillPoll == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		txn := sample.Next(i % m.cfg.Clients)
		for _, op := range txn.Ops {
			if op.Kind == odb.OpRead || op.Kind == odb.OpWrite {
				tally.add(uint32(op.Block))
				wide |= op.Block
			}
		}
		sample.Recycle(txn)
	}
	if wide > math.MaxUint32 {
		return fmt.Errorf("system: %w: the prefill sample names block %#x, past the tally's 32-bit block IDs",
			ErrBadConfig, uint64(wide))
	}
	ranked, scratch := tally.distinct()
	radixSort(ranked, scratch, false)
	// Fill any remaining capacity with unsampled blocks in extent order:
	// classes like customers have near-uniform popularity, so in steady
	// state the cache holds as many of them as fit — which subset does
	// not matter. Install these coldest first, then the ranked blocks,
	// least popular first, so the hottest end at the MRU end. ranked is
	// in block order here, so one cursor walking it alongside the extent
	// finds the sampled blocks to skip.
	if uint64(len(ranked)) < capacity {
		extra := capacity - uint64(len(ranked))
		j := 0
		for b := uint64(0); b < total && extra > 0; b++ {
			id := base + odb.BlockID(b)
			for ; j < len(ranked) && odb.BlockID(ranked[j].b) < id; j++ {
			}
			if j < len(ranked) && odb.BlockID(ranked[j].b) == id {
				continue
			}
			install(id)
			extra--
		}
	}
	// Hottest first, ties by block: the stable frequency sort keeps the
	// block order among equal counts, a total order.
	radixSort(ranked, scratch, true)
	if uint64(len(ranked)) > capacity {
		ranked = ranked[:capacity]
	}
	for i := len(ranked) - 1; i >= 0; i-- {
		install(odb.BlockID(ranked[i].b))
	}
	return nil
}

// prefillPoll is how many sample transactions prefillEach draws between
// checks of its context.
const prefillPoll = 256

// counted is a sampled block and its reference count. The block is its
// absolute ID, which Validate's warehouse bound keeps below 2^32 on every
// engine, so a slot is 8 bytes.
type counted struct {
	b uint32
	f uint32
}

// blockTally counts references per block in an open-addressed table
// (Fibonacci hash, linear probing) whose slots with f == 0 are empty. It
// doubles whenever it would pass half full, so it grows with the distinct
// blocks counted, not with the database or the buffer cache.
type blockTally struct {
	slots []counted
	n     int  // distinct blocks counted
	shift uint // 64 − log2(len(slots))
}

// tallyMinSlots is a tally's first size.
const tallyMinSlots = 1 << 10

// home returns b's first slot (Fibonacci hashing).
func (t *blockTally) home(b uint32) int {
	return int((uint64(b) * 0x9E3779B97F4A7C15) >> t.shift)
}

// add counts one reference to b.
func (t *blockTally) add(b uint32) {
	if t.slots == nil {
		t.resize(tallyMinSlots)
	}
	mask := len(t.slots) - 1
	for s := t.home(b); ; s = (s + 1) & mask {
		c := &t.slots[s]
		switch {
		case c.f == 0:
			*c = counted{b, 1}
			if t.n++; 2*t.n > len(t.slots) {
				t.resize(2 * len(t.slots))
			}
			return
		case c.b == b:
			c.f++
			return
		}
	}
}

// resize rehashes the tally into n slots, a power of two.
func (t *blockTally) resize(n int) {
	old := t.slots
	t.slots = make([]counted, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for _, c := range old {
		if c.f == 0 {
			continue
		}
		s := t.home(c.b)
		for t.slots[s].f != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = c
	}
}

// distinct moves the counted blocks, in no particular order, to the front
// of the table and returns them, with scratch of the same length cut from
// the rest: the table is at most half full, so both fit. The tally must
// not be used afterwards.
func (t *blockTally) distinct() (blocks, scratch []counted) {
	n := 0
	for _, c := range t.slots {
		if c.f != 0 {
			t.slots[n] = c
			n++
		}
	}
	return t.slots[:n], t.slots[n : 2*n]
}

// sortKey is c's radix key: its block, or, by frequency, its count's
// complement, so that the highest count sorts first.
func sortKey(c counted, byFreq bool) uint32 {
	if byFreq {
		return ^c.f
	}
	return c.b
}

// radixSort sorts s stably by sortKey ascending: a least-significant-
// digit radix sort over the key's bytes, one counting pass each, that
// skips every byte all keys share. scratch holds len(s) entries.
func radixSort(s, scratch []counted, byFreq bool) {
	if len(s) == 0 {
		return
	}
	var counts [4][256]int
	for _, c := range s {
		k := sortKey(c, byFreq)
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	src, dst := s, scratch
	for d := range counts {
		next := &counts[d]
		if next[byte(sortKey(src[0], byFreq)>>(8*d))] == len(s) {
			continue // every key has this byte
		}
		pos := 0
		for i, n := range next {
			next[i] = pos
			pos += n
		}
		for _, c := range src {
			k := byte(sortKey(c, byFreq) >> (8 * d))
			dst[next[k]] = c
			next[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

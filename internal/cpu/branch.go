// Package cpu models the processor core: a gshare branch predictor, a data
// TLB, and the paper's CPI accounting — the fixed stall costs of Table 3
// and the component formulas of Table 4 that decompose measured CPI into
// instruction, branch, TLB, trace-cache, L2, L3 and "other" contributions.
package cpu

// BranchPredictor is a gselect predictor (Pan/So/Rahmeh): the branch PC
// concatenated with a short global history indexes a table of 2-bit
// saturating counters, so each branch site owns a private set of history
// contexts as long as the table is large enough. The history length is
// configurable; short histories limit destructive aliasing between
// unrelated branches.
type BranchPredictor struct {
	history  uint64
	histBits uint
	histMask uint64 // low histBits bits
	idxMask  uint64 // table length minus one, 2^bits - 1
	table    []uint8

	predictions uint64
	mispredicts uint64
}

// nextCounter is the 2-bit saturating counter's transition table, indexed
// by ctr<<1 | taken.
var nextCounter = [8]uint8{0, 1, 0, 2, 1, 3, 2, 3}

// NewBranchPredictor builds a gshare predictor with 2^bits counters and
// histBits bits of global history folded into the index.
func NewBranchPredictor(bits, histBits uint) *BranchPredictor {
	if bits == 0 || bits > 24 {
		panic("cpu: branch predictor bits out of range")
	}
	if histBits > bits {
		panic("cpu: history longer than index")
	}
	t := make([]uint8, 1<<bits)
	for i := range t {
		t[i] = 1 // weakly not-taken
	}
	return &BranchPredictor{
		histBits: histBits,
		histMask: 1<<histBits - 1,
		idxMask:  1<<bits - 1,
		table:    t,
	}
}

// Record feeds one resolved branch (identified by its PC) with its actual
// outcome and reports whether the predictor had predicted it correctly.
// The counter update and the miss count are table reads and arithmetic,
// with no branch on the outcome.
func (b *BranchPredictor) Record(pc uint64, taken bool) bool {
	var t uint8
	if taken {
		t = 1
	}
	idx := (pc<<b.histBits | b.history&b.histMask) & b.idxMask
	ctr := b.table[idx]
	b.table[idx] = nextCounter[(ctr<<1|t)&7]
	b.history = b.history<<1 | uint64(t)
	miss := ctr>>1 ^ t // the prediction is the counter's high bit
	b.predictions++
	b.mispredicts += uint64(miss)
	return miss == 0
}

// MispredictRate returns mispredictions per prediction.
func (b *BranchPredictor) MispredictRate() float64 {
	if b.predictions == 0 {
		return 0
	}
	return float64(b.mispredicts) / float64(b.predictions)
}

// Counts returns total predictions and mispredictions.
func (b *BranchPredictor) Counts() (predictions, mispredicts uint64) {
	return b.predictions, b.mispredicts
}

// ResetStats clears the counters, preserving predictor state.
func (b *BranchPredictor) ResetStats() { b.predictions, b.mispredicts = 0, 0 }

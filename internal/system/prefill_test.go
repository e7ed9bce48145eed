package system

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"odbscale/internal/engine"
	"odbscale/internal/odb"
	"odbscale/internal/xrand"
)

// refPrefillEach is prefillEach as it was before the map-free ranking: a
// Go map of reference counts, a comparison sort and a map probe per
// extent block. TestPrefillMatchesReference holds prefillEach to it. It
// returns how many distinct blocks the sample touched, or −1 when the
// whole image fits and nothing is sampled.
func refPrefillEach(m *machine, install func(odb.BlockID)) int {
	base, total := m.se.PrefillBlocks()
	capacity := uint64(m.bc.Capacity())
	if total <= capacity {
		for b := uint64(0); b < total; b++ {
			install(base + odb.BlockID(b))
		}
		return -1
	}
	sample := odb.NewGenerator(m.layout, xrand.New(m.cfg.Seed).Split(77))
	sample.StockLevelScan = m.cfg.Tuning.StockLevelScan
	sample.SetPlanner(m.se.Planner(xrand.New(m.cfg.Seed).Split(78)))
	freq := make(map[odb.BlockID]uint32)
	for i := 0; i < m.cfg.Tuning.PrefillSampleTxns; i++ {
		txn := sample.Next(i % m.cfg.Clients)
		for _, op := range txn.Ops {
			if op.Kind == odb.OpRead || op.Kind == odb.OpWrite {
				freq[op.Block]++
			}
		}
		sample.Recycle(txn)
	}
	type bf struct {
		b odb.BlockID
		f uint32
	}
	ranked := make([]bf, 0, len(freq))
	for b, f := range freq {
		ranked = append(ranked, bf{b, f})
	}
	slices.SortFunc(ranked, func(x, y bf) int {
		if c := cmp.Compare(y.f, x.f); c != 0 {
			return c
		}
		return cmp.Compare(x.b, y.b)
	})
	if uint64(len(ranked)) > capacity {
		ranked = ranked[:capacity]
	}
	if extra := capacity - uint64(len(ranked)); extra > 0 {
		for b := uint64(0); b < total && extra > 0; b++ {
			if _, seen := freq[base+odb.BlockID(b)]; !seen {
				install(base + odb.BlockID(b))
				extra--
			}
		}
	}
	for i := len(ranked) - 1; i >= 0; i-- {
		install(ranked[i].b)
	}
	return len(freq)
}

// TestPrefillMatchesReference checks that prefill installs exactly the
// reference's block sequence, order included, on both engines: at W=10
// the image fits, at W=200 and 1200 the sample ranks blocks and unsampled
// ones fill the rest, a 64 MB cache truncates the ranking, and a sample
// of zero or one transaction ranks nothing or almost nothing.
func TestPrefillMatchesReference(t *testing.T) {
	type tc struct {
		engine     string
		w          int
		seed       int64
		cacheMB    int
		sampleTxns int
	}
	var cases []tc
	for _, eng := range []string{"btree", "lsm"} {
		for _, w := range []int{10, 200, 1200} {
			for _, seed := range []int64{1, 2} {
				cases = append(cases, tc{eng, w, seed, 0, -1})
			}
		}
		cases = append(cases,
			tc{eng, 200, 1, 64, -1},
			tc{eng, 200, 1, 0, 0},
			tc{eng, 200, 1, 0, 1})
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/W=%d/seed=%d/cache=%d/sample=%d", c.engine, c.w, c.seed, c.cacheMB, c.sampleTxns)
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(c.w, 16, 4)
			cfg.Engine, cfg.Seed = c.engine, c.seed
			if c.cacheMB > 0 {
				cfg.Machine.BufferCacheMB = c.cacheMB
			}
			if c.sampleTxns >= 0 {
				cfg.Tuning.PrefillSampleTxns = c.sampleTxns
			}
			m := build(cfg)
			var want, got []odb.BlockID
			sampled := refPrefillEach(m, func(b odb.BlockID) { want = append(want, b) })
			m.prefillEach(context.Background(), func(b odb.BlockID) { got = append(got, b) })
			if len(got) != len(want) {
				t.Fatalf("installed %d blocks, reference %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("install %d of %d is block %d, reference %d", i, len(want), got[i], want[i])
				}
			}
			// Each case must reach the path it is named for.
			capacity := m.bc.Capacity()
			switch {
			case c.w == 10 && sampled >= 0:
				t.Fatalf("W=10 sampled %d blocks; want the image to fit", sampled)
			case c.w > 10 && sampled < 0:
				t.Fatal("the image fits; want the ranking to run")
			case c.cacheMB > 0 && sampled <= capacity:
				t.Fatalf("%d sampled blocks fit %d slots; want the ranking truncated", sampled, capacity)
			case c.w > 10 && c.cacheMB == 0 && sampled >= capacity:
				t.Fatalf("%d sampled blocks fill %d slots; want unsampled blocks to fill the rest", sampled, capacity)
			}
		})
	}
}

// TestRadixSortOrder checks radixSort against a comparison sort on keys
// that differ in every byte and on keys that share all but one.
func TestRadixSortOrder(t *testing.T) {
	rng := xrand.New(1)
	for _, spread := range []uint64{1 << 32, 1 << 8, 3} {
		s := make([]counted, 5000)
		for i := range s {
			s[i] = counted{uint32(rng.Uint64() % spread), uint32(rng.Intn(40) + 1)}
		}
		want := slices.Clone(s)
		slices.SortStableFunc(want, func(x, y counted) int { return cmp.Compare(x.b, y.b) })
		slices.SortStableFunc(want, func(x, y counted) int { return cmp.Compare(y.f, x.f) })
		radixSort(s, make([]counted, len(s)), false)
		radixSort(s, make([]counted, len(s)), true)
		if !slices.Equal(s, want) {
			t.Fatalf("spread %d: radix order differs from the comparison sort", spread)
		}
	}
}

// TestTallySlotIsEightBytes pins the prefill tally's slot at a 32-bit
// block and a 32-bit count. The tally holds at least twice as many slots
// as the sample has distinct blocks, so its slot size sets its memory.
func TestTallySlotIsEightBytes(t *testing.T) {
	if size := unsafe.Sizeof(counted{}); size != 8 {
		t.Fatalf("counted is %d bytes, want 8", size)
	}
}

// TestPrefillRejectsWideBlockIDs checks that a sample naming a block past
// 32 bits fails with ErrBadConfig, before installing anything, instead of
// ranking truncated IDs: a 4 TiB memtable puts the LSM engine's L0 slots,
// and the bottom level after them, beyond 2^32 blocks at W=200. Validate
// rejects the memtable first, so the prefill's own check is driven here
// directly, past Validate.
func TestPrefillRejectsWideBlockIDs(t *testing.T) {
	cfg := DefaultConfig(200, 16, 1)
	cfg.Engine = "lsm"
	cfg.Tuning.LSM.MemtableMB = 1 << 22
	cfg.Tuning.PrefillSampleTxns = 50
	if err := Validate(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Validate = %v, want ErrBadConfig", err)
	}
	m := build(cfg)
	installed := 0
	err := m.prefillEach(context.Background(), func(odb.BlockID) { installed++ })
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("prefillEach = %v, want ErrBadConfig", err)
	}
	if installed != 0 {
		t.Fatalf("installed %d blocks, want 0", installed)
	}
}

// TestPrefillHonoursCancel checks that a cancelled context stops the
// prefill sample at once: the largest sample Validate accepts, which
// would take seconds, returns context.Canceled and installs no block.
func TestPrefillHonoursCancel(t *testing.T) {
	cfg := DefaultConfig(200, 16, 1)
	cfg.Tuning.PrefillSampleTxns = maxPrefillSampleTxns
	m := build(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	installed := 0
	err := m.prefillEach(ctx, func(odb.BlockID) { installed++ })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("prefillEach = %v, want context.Canceled", err)
	}
	if installed != 0 {
		t.Fatalf("installed %d blocks after cancellation, want 0", installed)
	}
}

// TestRunCancelledDuringSetUp checks that Run returns the context's
// error when the context ends during set-up, without drawing the
// prefill sample: options run before prefill, so one that cancels
// leaves prefill a dead context. The option also routes prefill's
// planner through a counter, since drive would return the same error
// after a full sample.
func TestRunCancelledDuringSetUp(t *testing.T) {
	cfg := DefaultConfig(200, 16, 1)
	cfg.Tuning.PrefillSampleTxns = maxPrefillSampleTxns
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows := 0
	cancelling := func(m *machine) error {
		m.se = plannerSpy{m.se, &rows}
		cancel()
		return nil
	}
	if _, err := Run(ctx, cfg, cancelling); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if rows != 0 {
		t.Fatalf("prefill planned %d row reads after cancellation, want 0", rows)
	}
}

// plannerSpy hands out planners that count the row reads they plan.
type plannerSpy struct {
	engine.Instance
	rows *int
}

func (s plannerSpy) Planner(rng *xrand.Rand) odb.AccessPlanner {
	return rowCounter{s.Instance.Planner(rng), s.rows}
}

type rowCounter struct {
	odb.AccessPlanner
	rows *int
}

func (c rowCounter) ReadRow(ops []odb.Op, t odb.TableID, ord uint64) []odb.Op {
	*c.rows++
	return c.AccessPlanner.ReadRow(ops, t, ord)
}

// BenchmarkPrefill times prefill on simbench's scaled configuration
// (W=1200, C=64, P=4); one op is one prefill of a freshly built machine,
// whose construction is outside the timer.
func BenchmarkPrefill(b *testing.B) {
	cfg := DefaultConfig(1200, 64, 4)
	cfg.Seed = 3
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := build(cfg)
		b.StartTimer()
		m.prefill(context.Background())
	}
}

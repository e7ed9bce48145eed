package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeometryPanics(t *testing.T) {
	for _, tc := range []struct{ size, ways, line int }{
		{0, 1, 64},
		{100, 8, 64},     // not divisible
		{64 * 24, 8, 64}, // 3 sets, not power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("want panic for %+v", tc)
				}
			}()
			NewCache("x", tc.size, tc.ways, tc.line)
		}()
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := NewCache("t", 8*64*4, 4, 64) // 8 sets, 4 ways
	hit, _, _ := c.Access(1, false, Exclusive)
	if hit {
		t.Fatal("cold access hit")
	}
	hit, _, _ = c.Access(1, false, Exclusive)
	if !hit {
		t.Fatal("second access missed")
	}
}

// probe reports whether line is present in c and in what state, without
// touching LRU.
func probe(c *Cache, line uint64) (State, bool) {
	if at, _ := c.find(line); at >= 0 {
		return c.lines[at].state, true
	}
	return Invalid, false
}

func TestLRUEviction(t *testing.T) {
	c := NewCache("t", 1*64*2, 2, 64) // 1 set, 2 ways
	c.Access(0, false, Exclusive)
	c.Access(1, false, Exclusive)
	c.Access(0, false, Exclusive) // touch 0 so 1 becomes LRU
	_, victim, _ := c.Access(2, false, Exclusive)
	if !victim.Valid || victim.Line != 1 {
		t.Fatalf("victim = %+v, want line 1", victim)
	}
	if _, present := probe(c, 0); !present {
		t.Fatal("MRU line was evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := NewCache("t", 1*64*1, 1, 64) // direct-mapped single set
	c.Access(5, true, Exclusive)      // write -> Modified
	_, victim, _ := c.Access(9, false, Exclusive)
	if !victim.Dirty {
		t.Fatalf("victim of dirty line not marked dirty: %+v", victim)
	}
}

func TestInvalidateAndCoherenceMiss(t *testing.T) {
	c := NewCache("t", 4*64*2, 2, 64)
	c.Access(3, false, Shared)
	present, dirty := c.Invalidate(3)
	if !present || dirty {
		t.Fatalf("Invalidate = %v, %v", present, dirty)
	}
	_, _, coher := c.Access(3, false, Shared)
	if !coher {
		t.Fatal("miss after invalidation not classified as coherence miss")
	}
	if len(c.invalidated) != 0 {
		t.Fatalf("classifying miss left %d invalidation records", len(c.invalidated))
	}
	// Once consumed, the classification does not repeat.
	c.Invalidate(99)
	if present, _ := c.Invalidate(98); present {
		t.Fatal("absent line reported present")
	}
}

func TestDowngrade(t *testing.T) {
	c := NewCache("t", 4*64*2, 2, 64)
	c.Access(7, true, Exclusive) // Modified
	present, dirty := c.Downgrade(7)
	if !present || !dirty {
		t.Fatalf("Downgrade = %v, %v, want present dirty", present, dirty)
	}
	if st, _ := probe(c, 7); st != Shared {
		t.Fatalf("state after downgrade = %v", st)
	}
	if present, _ := c.Downgrade(1234); present {
		t.Fatal("absent line downgraded")
	}
}

// Property: a hit never reports a victim, a reported victim is gone,
// and the accessed line is present afterwards (Modified after a write).
func TestAccountingQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCache("t", 16*64*4, 4, 64)
		for i := 0; i < 2000; i++ {
			line := uint64(rng.Intn(200))
			write := rng.Intn(2) == 0
			hit, victim, _ := c.Access(line, write, Exclusive)
			if hit && victim.Valid {
				return false
			}
			if _, present := probe(c, victim.Line); victim.Valid && present {
				return false
			}
			if st, present := probe(c, line); !present || write && st != Modified {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: a cache never holds two copies of the same line, and never
// holds more lines than its capacity.
func TestNoDuplicatesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCache("t", 8*64*2, 2, 64)
		for i := 0; i < 1000; i++ {
			c.Access(uint64(rng.Intn(64)), rng.Intn(2) == 0, Exclusive)
			if rng.Intn(10) == 0 {
				c.Invalidate(uint64(rng.Intn(64)))
			}
		}
		seen := map[uint64]int{}
		total := 0
		for _, w := range c.lines {
			if w.state != Invalid {
				seen[w.tag]++
				total++
			}
		}
		for _, n := range seen {
			if n > 1 {
				return false
			}
		}
		return total <= 8*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Inclusion-style stack property: doubling the associativity with the same
// set count never decreases the hit count on the same trace (LRU stack
// property per set).
func TestStackProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trace := make([]uint64, 20000)
	for i := range trace {
		trace[i] = uint64(rng.Intn(500))
	}
	small := NewCache("s", 16*64*2, 2, 64)
	big := NewCache("b", 16*64*4, 4, 64)
	var smallHits, bigHits int
	for _, line := range trace {
		if hit, _, _ := small.Access(line, false, Exclusive); hit {
			smallHits++
		}
		if hit, _, _ := big.Access(line, false, Exclusive); hit {
			bigHits++
		}
	}
	if bigHits < smallHits {
		t.Fatalf("bigger cache hit less: %d < %d", bigHits, smallHits)
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", State(9): "?"} {
		if st.String() != want {
			t.Fatalf("State(%d).String() = %q", st, st.String())
		}
	}
}

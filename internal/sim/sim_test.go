package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	for e.Step() {
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	for e.Step() {
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("ties not FIFO: %v", got)
		}
	}
}

func TestAfter(t *testing.T) {
	e := New()
	fired := Time(0)
	e.At(100, func() {
		e.After(50, func() { fired = e.Now() })
	})
	for e.Step() {
	}
	if fired != 150 {
		t.Fatalf("After fired at %d, want 150", fired)
	}
}

func TestCancel(t *testing.T) {
	e := New()
	ran := false
	ev := e.At(10, func() { ran = true })
	ev.Cancel()
	for e.Step() {
	}
	if ran {
		t.Fatal("canceled event ran")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.At(100, func() {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic scheduling in the past")
		}
	}()
	e.At(50, func() {})
}

func TestRunUntil(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 5; i++ {
		e.At(Time(i*10), func() { count++ })
	}
	n := e.RunUntil(35)
	if n != 3 || count != 3 {
		t.Fatalf("RunUntil dispatched %d (count %d), want 3", n, count)
	}
	if e.Now() != 35 {
		t.Fatalf("Now = %d, want 35 (advance to deadline)", e.Now())
	}
	n = e.RunUntil(100)
	if n != 2 || count != 5 {
		t.Fatalf("second RunUntil dispatched %d, want 2", n)
	}
	if e.Step() {
		t.Fatal("queue not empty after RunUntil past the last event")
	}
}

func TestRunUntilDiscardsCanceled(t *testing.T) {
	e := New()
	ev := e.At(10, func() { t.Fatal("canceled event ran") })
	ev.Cancel()
	if n := e.RunUntil(100); n != 0 {
		t.Fatalf("dispatched %d canceled events", n)
	}
}

// Property: events fire in nondecreasing time order regardless of the
// insertion order, including events scheduled from inside events.
func TestMonotonicDispatchQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var times []Time
		record := func() { times = append(times, e.Now()) }
		for i := 0; i < 50; i++ {
			when := Time(rng.Intn(1000))
			e.At(when, func() {
				record()
				if rng.Intn(3) == 0 {
					e.After(Time(rng.Intn(100)), record)
				}
			})
		}
		for e.Step() {
		}
		return sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Canceled-but-queued events are not pending: they never dispatch, and
// canceling twice, or after the event fired, changes nothing.
func TestPendingExcludesCanceled(t *testing.T) {
	e := New()
	ran := 0
	keep := e.At(10, func() { ran++ })
	drop := e.At(20, func() { t.Fatal("canceled event ran") })
	drop.Cancel()
	drop.Cancel() // double cancel is a no-op
	if !e.Step() || ran != 1 {
		t.Fatalf("Step ran %d events, want the one live event", ran)
	}
	keep.Cancel() // already fired: a no-op
	if e.Step() {
		t.Fatal("Step dispatched a canceled event")
	}
}

func TestRunUntilDoesNotCountCanceledHeads(t *testing.T) {
	e := New()
	ran := 0
	for i := 1; i <= 6; i++ {
		ev := e.At(Time(i*10), func() { ran++ })
		if i%2 == 1 {
			ev.Cancel()
		}
	}
	if n := e.RunUntil(100); n != 3 {
		t.Fatalf("RunUntil counted %d dispatches, want 3 (canceled heads discarded uncounted)", n)
	}
	if ran != 3 {
		t.Fatalf("ran %d events, want 3", ran)
	}
}

// A handle that survived its event firing must not cancel the new event
// that recycled the pooled slot.
func TestStaleHandleCancelIsNoOp(t *testing.T) {
	e := New()
	stale := e.At(10, func() {})
	if !e.Step() {
		t.Fatal("no event dispatched")
	}
	ran := false
	e.At(20, func() { ran = true }) // reuses the freed slot
	stale.Cancel()
	for e.Step() {
	}
	if !ran {
		t.Fatal("stale Cancel killed the slot's new occupant")
	}
}

func TestZeroEventCancelIsNoOp(t *testing.T) {
	var ev Event
	ev.Cancel() // must not panic
}

func TestTypedCallbacks(t *testing.T) {
	e := New()
	var got []int
	fn := func(arg any) { got = append(got, arg.(int)) }
	e.AfterCall(20, fn, 2)
	e.AfterCall(10, fn, 1)
	e.AfterCall(30, fn, 3)
	ev := e.AfterCall(15, fn, 99)
	ev.Cancel()
	for e.Step() {
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("typed callback order = %v", got)
	}
}

// Steady-state scheduling through the typed-callback path must not
// allocate: nodes come from the free list and small-int payloads use the
// runtime's static boxes.
func TestAfterCallSteadyStateAllocFree(t *testing.T) {
	e := New()
	fn := func(any) {}
	// Warm the pool and the heap backing array.
	for i := 0; i < 64; i++ {
		e.AfterCall(Time(i+1), fn, i%8)
	}
	for e.Step() {
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			e.AfterCall(Time(i+1), fn, i%8)
		}
		for e.Step() {
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state AfterCall allocates %.1f allocs/run, want 0", avg)
	}
}

// Cancel must be O(1): it never reheapifies, only marks. This exercises a
// large queue with heavy cancellation and verifies ordering still holds.
func TestLazyCancelKeepsOrdering(t *testing.T) {
	e := New()
	var got []Time
	var evs []Event
	for i := 0; i < 500; i++ {
		when := Time((i*7919)%1000 + 1)
		evs = append(evs, e.At(when, func() { got = append(got, e.Now()) }))
	}
	for i := 0; i < len(evs); i += 2 {
		evs[i].Cancel()
	}
	for e.Step() {
	}
	if len(got) != 250 {
		t.Fatalf("dispatched %d, want 250", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("dispatch order not monotonic under heavy cancellation")
	}
}

package storage

import (
	"testing"

	"odbscale/internal/sim"
	"odbscale/internal/xrand"
)

func testArray(dataDisks int) (*Array, *sim.Engine) {
	eng := sim.New()
	cfg := DefaultConfig()
	cfg.DataDisks = dataDisks
	cfg.Jitter = 0 // deterministic service times for assertions
	return New(cfg, eng, xrand.New(1)), eng
}

func TestReadCompletes(t *testing.T) {
	a, eng := testArray(4)
	var got []uint64
	a.Read(7, func(b uint64) { got = append(got, b) })
	for eng.Step() {
	}
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("completions = %v, want the one read of block 7", got)
	}
	s := a.StatsNow()
	if s.Reads != 1 {
		t.Fatalf("Reads = %d", s.Reads)
	}
	// Service = (AccessMS + TransferMS) * CyclesPerMS.
	cfg := DefaultConfig()
	want := (cfg.AccessMS + cfg.TransferMS) * cfg.CyclesPerMS
	if s.MeanReadLatency() != want {
		t.Fatalf("latency = %v, want %v", s.MeanReadLatency(), want)
	}
}

func TestQueueingDelay(t *testing.T) {
	a, eng := testArray(1) // single disk: second read queues behind first
	var completions []sim.Time
	for i := 0; i < 2; i++ {
		a.Read(0, func(uint64) { completions = append(completions, eng.Now()) })
	}
	for eng.Step() {
	}
	if len(completions) != 2 {
		t.Fatalf("completions = %v", completions)
	}
	if completions[1] != 2*completions[0] {
		t.Fatalf("no FCFS queueing: %v", completions)
	}
	s := a.StatsNow()
	// Second read's latency includes the wait: mean = (svc + 2*svc)/2.
	cfg := DefaultConfig()
	svc := (cfg.AccessMS + cfg.TransferMS) * cfg.CyclesPerMS
	if got, want := s.MeanReadLatency(), 1.5*svc; got != want {
		t.Fatalf("mean latency = %v, want %v", got, want)
	}
}

// TestBackgroundReadOccupiesDiskNotLatency pins the maintenance-read
// contract: a background read (compaction input) competes for the disk
// like any read — a foreground read behind it queues — but is counted
// in BgReads, not Reads, and contributes nothing to foreground read
// latency.
func TestBackgroundReadOccupiesDiskNotLatency(t *testing.T) {
	a, eng := testArray(1) // single disk: the foreground read must queue
	a.BackgroundRead(0)
	var done sim.Time
	a.Read(0, func(uint64) { done = eng.Now() })
	for eng.Step() {
	}
	cfg := DefaultConfig()
	svc := sim.Time((cfg.AccessMS + cfg.TransferMS) * cfg.CyclesPerMS)
	if done != 2*svc {
		t.Fatalf("foreground read completed at %v, want %v (queued behind background read)", done, 2*svc)
	}
	s := a.StatsNow()
	if s.BgReads != 1 || s.Reads != 1 {
		t.Fatalf("BgReads = %d, Reads = %d, want 1 and 1", s.BgReads, s.Reads)
	}
	// Foreground latency includes its queueing wait but never the
	// background read's own service.
	if got, want := s.MeanReadLatency(), 2*float64(svc); got != want {
		t.Fatalf("mean read latency = %v, want %v", got, want)
	}
	if got, want := s.BusyCycles, 2*float64(svc); got != want {
		t.Fatalf("BusyCycles = %v, want %v (background reads occupy the disk)", got, want)
	}
}

func TestStriping(t *testing.T) {
	a, eng := testArray(4)
	// Blocks 0..3 hit distinct disks, so all complete at the same time.
	var times []sim.Time
	for b := uint64(0); b < 4; b++ {
		a.Read(b, func(uint64) { times = append(times, eng.Now()) })
	}
	for eng.Step() {
	}
	for _, x := range times[1:] {
		if x != times[0] {
			t.Fatalf("striped reads serialized: %v", times)
		}
	}
}

func TestUtilizationAndSaturation(t *testing.T) {
	a, eng := testArray(2)
	a.ResetStats()
	for i := 0; i < 100; i++ {
		a.Read(uint64(i), nil)
	}
	for eng.Step() {
	}
	s := a.StatsNow()
	if u := s.Utilization(a.DataDisks()); u < 0.99 {
		t.Fatalf("utilization = %v, want ~1 under backlog", u)
	}
	// 50 FCFS reads per disk: the k-th waits behind k−1, so the mean
	// latency is 25.5 service times. Shallow queues would leave it near 1.
	cfg := DefaultConfig()
	svc := (cfg.AccessMS + cfg.TransferMS) * cfg.CyclesPerMS
	if got := s.MeanReadLatency(); got < 25*svc {
		t.Fatalf("mean read latency = %v service times, want deep queues (>= 25)", got/svc)
	}
}

func TestWritesDoNotBlockReads(t *testing.T) {
	// Writes on other disks shouldn't delay a read on its own disk.
	a, eng := testArray(2)
	for i := 0; i < 10; i++ {
		a.Write(1) // all on disk 1
	}
	var readDone sim.Time
	a.Read(0, func(uint64) { readDone = eng.Now() })
	for eng.Step() {
	}
	cfg := DefaultConfig()
	if readDone != sim.Time((cfg.AccessMS+cfg.TransferMS)*cfg.CyclesPerMS) {
		t.Fatalf("read delayed by writes on other disk: %d", readDone)
	}
	if got := a.StatsNow().Writes; got != 10 {
		t.Fatalf("Writes = %d", got)
	}
}

func TestLogWriteDurability(t *testing.T) {
	a, eng := testArray(2)
	durable := false
	a.LogWrite(1, func() { durable = true })
	a.LogWrite(1, nil) // fire-and-forget on the other log device
	for eng.Step() {
	}
	if !durable {
		t.Fatal("log write callback never ran")
	}
	if got := a.StatsNow().LogWrites; got != 2 {
		t.Fatalf("LogWrites = %d", got)
	}
}

func TestLogRoundRobin(t *testing.T) {
	a, eng := testArray(2)
	// Two log writes to two devices complete simultaneously.
	var times []sim.Time
	a.LogWrite(1, func() { times = append(times, eng.Now()) })
	a.LogWrite(1, func() { times = append(times, eng.Now()) })
	for eng.Step() {
	}
	if len(times) != 2 || times[0] != times[1] {
		t.Fatalf("log devices not round-robin: %v", times)
	}
}

func TestResetStats(t *testing.T) {
	a, eng := testArray(2)
	a.Read(0, nil)
	for eng.Step() {
	}
	a.ResetStats()
	s := a.StatsNow()
	if s.Reads != 0 || s.BusyCycles != 0 {
		t.Fatalf("stats survived reset: %+v", s)
	}
}

func TestStatsZeroValues(t *testing.T) {
	var s Stats
	if s.MeanReadLatency() != 0 || s.Utilization(4) != 0 {
		t.Fatal("zero stats should report zeros")
	}
	s = Stats{BusyCycles: 100, Elapsed: 10}
	if s.Utilization(1) != 1 {
		t.Fatalf("over-busy utilization = %v, want clamped", s.Utilization(1))
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for zero disks")
		}
	}()
	cfg := DefaultConfig()
	cfg.DataDisks = 0
	New(cfg, sim.New(), xrand.New(1))
}

func TestJitterVariesServiceTimes(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig()
	cfg.DataDisks = 1
	cfg.Jitter = 0.5
	a := New(cfg, eng, xrand.New(2))
	var times []sim.Time
	prev := sim.Time(0)
	for i := 0; i < 20; i++ {
		a.Read(0, func(uint64) {
			times = append(times, eng.Now()-prev)
			prev = eng.Now()
		})
	}
	for eng.Step() {
	}
	distinct := map[sim.Time]bool{}
	for _, d := range times {
		distinct[d] = true
	}
	if len(distinct) < 10 {
		t.Fatalf("jittered service times look constant: %d distinct", len(distinct))
	}
}

// TestReadRecordsRecycle issues reads from inside completions, so each
// new read takes the record its predecessor just returned to the pool:
// every callback must still see its own block and latency.
func TestReadRecordsRecycle(t *testing.T) {
	a, eng := testArray(2)
	var got []uint64
	var next func(uint64)
	next = func(b uint64) {
		got = append(got, b)
		if b < 5 {
			a.Read(b+1, next)
		}
	}
	a.Read(0, next)
	a.Read(101, func(b uint64) { got = append(got, b) }) // the other disk
	for eng.Step() {
	}
	want := []uint64{0, 101, 1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("completions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completions = %v, want %v", got, want)
		}
	}
	cfg := DefaultConfig()
	svc := (cfg.AccessMS + cfg.TransferMS) * cfg.CyclesPerMS
	if s := a.StatsNow(); s.Reads != 7 || s.MeanReadLatency() != svc {
		t.Fatalf("Reads = %d, mean latency = %v, want 7 reads of one service time each", s.Reads, s.MeanReadLatency())
	}
}

// BenchmarkArrayRead issues and completes one foreground read per
// iteration, with its disk and log traffic: the steady-state I/O path
// must report 0 allocs/op.
func BenchmarkArrayRead(b *testing.B) {
	a, eng := testArray(24)
	var completed uint64
	done := func(uint64) { completed++ }
	cycle := func(block uint64) {
		a.Read(block, done)
		a.Write(block + 1)
		a.LogWrite(1, nil)
		for eng.Step() {
		}
	}
	cycle(0) // grows the event arena and the record pool once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(uint64(i))
	}
	if completed != uint64(b.N)+1 {
		b.Fatalf("%d reads completed, want %d", completed, b.N+1)
	}
}

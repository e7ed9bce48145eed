package qstats

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// testInput builds a consistent input: a 1e9-cycle window at 1e6
// cycles/ms (1 second), 1000 commits, with hand-set accumulators.
func testInput() *Input {
	in := &Input{
		Meta:          Meta{Engine: "btree", Warehouses: 10, Clients: 8, Processors: 1},
		ElapsedCycles: 1e9,
		CyclesPerMS:   1e6,
		Commits:       1000,
	}
	in.Servers[CPU] = 1
	in.Servers[Bus] = 1
	in.Servers[Disk] = 4
	in.Servers[Log] = 1
	// Disk: 2000 visits, 0.5ms service each, 1ms wait each.
	in.Counts[Disk] = Counts{Arrivals: 2000, Completions: 2000, BusyCycles: 2000 * 0.5e6, WaitCycles: 2000 * 1e6}
	// Log: 1000 visits, 0.6ms service, no wait.
	in.Counts[Log] = Counts{Arrivals: 1000, Completions: 1000, BusyCycles: 1000 * 0.6e6}
	// Lock manager: 100 waits of 2ms (delay center, no service).
	in.Counts[LockMgr] = Counts{Arrivals: 100, Completions: 100, WaitCycles: 100 * 2e6}
	// CPU: busy 80% of the window.
	in.Counts[CPU] = Counts{Arrivals: 5000, Completions: 5000, BusyCycles: 0.8e9, WaitCycles: 0.1e9}
	return in
}

func TestBuildDerivations(t *testing.T) {
	r := Build(testInput())
	if r.ElapsedMS != 1000 {
		t.Fatalf("elapsed = %v ms, want 1000", r.ElapsedMS)
	}
	if r.TPS != 1000 {
		t.Fatalf("tps = %v, want 1000", r.TPS)
	}
	d := r.Stations[Disk]
	if got, want := d.Utilization, 2000*0.5e6/(1e9*4); math.Abs(got-want) > 1e-12 {
		t.Errorf("disk utilization = %v, want %v", got, want)
	}
	if got, want := d.ThroughputPerSec, 2000.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("disk throughput = %v, want %v", got, want)
	}
	if got, want := d.ServiceMS, 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("disk service = %v, want %v", got, want)
	}
	if got, want := d.WaitMS, 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("disk wait = %v, want %v", got, want)
	}
	if got, want := d.QueueLen, (2000*0.5e6+2000*1e6)/1e9; math.Abs(got-want) > 1e-12 {
		t.Errorf("disk queue length = %v, want %v", got, want)
	}
	if got, want := d.ServiceDemandMS, 2000*0.5/1000; math.Abs(got-want) > 1e-12 {
		t.Errorf("disk service demand = %v, want %v", got, want)
	}
	if got, want := d.WaitDemandMS, 2000*1.0/1000; math.Abs(got-want) > 1e-12 {
		t.Errorf("disk wait demand = %v, want %v", got, want)
	}
	lm := r.Stations[LockMgr]
	if lm.Servers != 0 || lm.Utilization != 0 {
		t.Errorf("lockmgr should be a delay center, got servers=%d util=%v", lm.Servers, lm.Utilization)
	}
	if got, want := lm.WaitMS, 2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("lockmgr wait = %v, want %v", got, want)
	}
}

func TestOperationalLawResiduals(t *testing.T) {
	r := Build(testInput())
	for _, s := range r.Stations {
		if s.LittleResidual > 1e-9 {
			t.Errorf("%s: Little residual %v", s.Name, s.LittleResidual)
		}
		if s.UtilResidual > 1e-9 {
			t.Errorf("%s: utilization residual %v", s.Name, s.UtilResidual)
		}
	}
	if viol := r.Check(1e-6); len(viol) != 0 {
		t.Errorf("Check reported violations on a consistent input: %v", viol)
	}
}

func TestRankingExcludesDriverAndOrdersByWaitDemand(t *testing.T) {
	r := Build(testInput())
	for _, name := range r.Ranking {
		if name == "cpu" {
			t.Fatalf("driver station in ranking: %v", r.Ranking)
		}
	}
	// Disk wait demand 2.0 > lockmgr 0.2 > everything else 0.
	if len(r.Ranking) == 0 || r.Ranking[0] != "disk" {
		t.Fatalf("ranking = %v, want disk first", r.Ranking)
	}
	if r.Ranking[1] != "lockmgr" {
		t.Fatalf("ranking = %v, want lockmgr second", r.Ranking)
	}
	if r.Bottleneck != "disk" {
		t.Fatalf("bottleneck = %q, want disk", r.Bottleneck)
	}
	// The log device (U = 0.6) outsaturates the disk array (U = 0.25)
	// even though the disk imposes more queueing — the two verdicts are
	// deliberately independent.
	if r.Saturating != "log" {
		t.Fatalf("saturating = %q, want log", r.Saturating)
	}
	if want := 1 / 0.6; math.Abs(r.Headroom-want) > 1e-9 {
		t.Fatalf("headroom = %v, want %v", r.Headroom, want)
	}
}

func TestBottleneckEmptyWhenNothingQueues(t *testing.T) {
	in := &Input{ElapsedCycles: 1e9, CyclesPerMS: 1e6, Commits: 10}
	r := Build(in)
	if r.Bottleneck != "" {
		t.Fatalf("bottleneck = %q on an idle run, want empty", r.Bottleneck)
	}
	if r.Saturating != "" || r.Headroom != 0 {
		t.Fatalf("saturating = %q headroom = %v on an idle run", r.Saturating, r.Headroom)
	}
	if len(r.Ranking) != NumStations-1 {
		t.Fatalf("ranking has %d entries, want %d", len(r.Ranking), NumStations-1)
	}
}

func TestCheckFlagsViolations(t *testing.T) {
	r := Build(testInput())
	r.Stations[Disk].LittleResidual = 1e-3
	r.Stations[Log].Completions = r.Stations[Log].Arrivals + 1
	r.Stations[Bus].Utilization = 1.5
	viol := r.Check(1e-6)
	if len(viol) != 3 {
		t.Fatalf("Check found %d violations (%v), want 3", len(viol), viol)
	}
}

func TestStationAccumulationAllocFree(t *testing.T) {
	c := NewCollector()
	st := c.Station(Disk)
	allocs := testing.AllocsPerRun(1000, func() {
		st.Arrive()
		st.Complete(10, 20)
		st.Visit(1, 2)
	})
	if allocs != 0 {
		t.Fatalf("station accumulation allocates %v per op, want 0", allocs)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := Build(testInput())
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Bottleneck != r.Bottleneck || back.Commits != r.Commits || len(back.Stations) != len(r.Stations) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, r)
	}
	if back.Stations[Disk].WaitDemandMS != r.Stations[Disk].WaitDemandMS {
		t.Fatalf("round trip lost wait demand")
	}
}

func TestWriteTextAndDiff(t *testing.T) {
	r := Build(testInput())
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"operational laws: OK", "bottleneck: disk", "lockmgr", "headroom"} {
		if !strings.Contains(out, want) {
			t.Errorf("report text missing %q:\n%s", want, out)
		}
	}
	in2 := testInput()
	in2.Counts[LockMgr].WaitCycles = 100 * 30e6
	r2 := Build(in2)
	buf.Reset()
	if err := WriteDiff(&buf, r, r2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bottleneck: disk -> lockmgr") {
		t.Errorf("diff missing bottleneck shift:\n%s", buf.String())
	}
}

// TestCollectorPublishAndBottlenecks checks that a collector has no
// report before its first publication and hands back the published one,
// bottleneck included, afterwards.
func TestCollectorPublishAndBottlenecks(t *testing.T) {
	c := NewCollector()
	if r := c.Report(); r != nil {
		t.Fatalf("pre-publish report = %+v, want nil", r)
	}
	c.Publish(Build(testInput()))
	if r := c.Report(); r == nil || r.Bottleneck != "disk" {
		t.Fatalf("published report = %+v, want bottleneck disk", r)
	}
}

func TestCollectorReset(t *testing.T) {
	c := NewCollector()
	c.Station(Bus).Visit(5, 7)
	c.ResetStations()
	if got := c.Counts()[Bus]; got != (Counts{}) {
		t.Fatalf("counts after reset = %+v, want zero", got)
	}
}

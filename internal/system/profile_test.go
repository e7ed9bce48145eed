package system

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"odbscale/internal/profile"
	"odbscale/internal/telemetry"
)

// TestRunProfiledDoesNotPerturb pins the profiler's core invariant:
// metrics are bit-identical with profiling on. Same seed, with and
// without the collector (and with and without the flight recorder
// alongside), must produce identical Metrics.
func TestRunProfiledDoesNotPerturb(t *testing.T) {
	cfg := flightCfg()
	plain, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := profile.NewCollector()
	profiled, err := Run(context.Background(), cfg, WithProfiler(col))
	if err != nil {
		t.Fatal(err)
	}
	if plain != profiled {
		t.Errorf("profiler perturbed the simulation:\nplain    %+v\nprofiled %+v", plain, profiled)
	}

	// Profiling alongside the flight recorder must match a recorded run.
	rec := telemetry.NewRecorder(telemetry.Config{})
	recorded, err := Run(context.Background(), cfg, WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	rec2 := telemetry.NewRecorder(telemetry.Config{})
	both, err := Run(context.Background(), cfg, WithRecorder(rec2), WithProfiler(profile.NewCollector()))
	if err != nil {
		t.Fatal(err)
	}
	if recorded != both {
		t.Errorf("profiler perturbed a recorded run:\nrecorded %+v\nboth     %+v", recorded, both)
	}

	// A nil collector and recorder degrade to a plain run.
	viaNil, err := Run(context.Background(), cfg, WithRecorder(nil), WithProfiler(nil))
	if err != nil {
		t.Fatal(err)
	}
	if viaNil != plain {
		t.Error("Run with nil recorder and profiler differs from a plain Run")
	}
}

// TestRunProfiledDeterministic checks the profile itself is reproducible
// bit for bit across reruns of the same seed.
func TestRunProfiledDeterministic(t *testing.T) {
	run := func() *profile.Profile {
		col := profile.NewCollector()
		if _, err := Run(context.Background(), flightCfg(), WithProfiler(col)); err != nil {
			t.Fatal(err)
		}
		return col.Profile()
	}
	a, b := run(), run()
	if len(a.Frames) == 0 {
		t.Fatal("empty profile")
	}
	if len(a.Frames) != len(b.Frames) {
		t.Fatalf("frame counts differ: %d vs %d", len(a.Frames), len(b.Frames))
	}
	for i := range a.Frames {
		if a.Frames[i] != b.Frames[i] {
			t.Fatalf("frame %d differs:\n%+v\n%+v", i, a.Frames[i], b.Frames[i])
		}
	}
}

// TestProfileAccountsWholeRun checks conservation on small runs at
// P ∈ {1, 2, 4}: the profile's instruction total must equal the measured
// one exactly and its CPI reproduce the measured CPI (the apportionment
// telescopes, so only float summation order separates them), and its
// frames' summed events the measured event rates. At P ≥ 2 a context
// switch is priced inside a running chunk whenever that chunk wakes a
// process onto an idle CPU; the switch must not take the chunk's shares.
func TestProfileAccountsWholeRun(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("P=%d", procs), func(t *testing.T) {
			cfg := flightCfg()
			cfg.Processors = procs
			col := profile.NewCollector()
			m, err := Run(context.Background(), cfg, WithProfiler(col))
			if err != nil {
				t.Fatal(err)
			}
			p := col.Profile()

			wantInstr := uint64(math.Round(m.IPX * float64(m.Txns)))
			if got := p.TotalInstr(); got != wantInstr {
				t.Errorf("profile instructions = %d, metrics imply %d", got, wantInstr)
			}
			if rel := math.Abs(p.CPI()-m.CPI) / m.CPI; rel > 1e-9 {
				t.Errorf("profile CPI %.12f vs metrics CPI %.12f (rel %.3g)", p.CPI(), m.CPI, rel)
			}
			if p.Meta.Txns != m.Txns {
				t.Errorf("profile txns %d != metrics %d", p.Meta.Txns, m.Txns)
			}
			if p.Meta.ElapsedSeconds != m.ElapsedSeconds {
				t.Errorf("profile elapsed %f != metrics %f", p.Meta.ElapsedSeconds, m.ElapsedSeconds)
			}

			// The frames' summed events are the run's event totals: per
			// instruction they reproduce Metrics' rates and MPI, and their
			// coherence/L3 ratio its coherence share.
			var sum profile.FrameCounters
			for _, f := range p.Frames {
				sum.TCMiss += f.TCMiss
				sum.L2Miss += f.L2Miss
				sum.L3Miss += f.L3Miss
				sum.CoherMiss += f.CoherMiss
				sum.TLBMiss += f.TLBMiss
				sum.Mispred += f.Mispred
			}
			instr := float64(p.TotalInstr())
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"TCMissPI", float64(sum.TCMiss) / instr, m.Rates.TCMissPI},
				{"L2MissPI", float64(sum.L2Miss) / instr, m.Rates.L2MissPI},
				{"L3MissPI", float64(sum.L3Miss) / instr, m.Rates.L3MissPI},
				{"MPI", float64(sum.L3Miss) / instr, m.MPI},
				{"TLBMissPI", float64(sum.TLBMiss) / instr, m.Rates.TLBMissPI},
				{"BranchMispredPI", float64(sum.Mispred) / instr, m.Rates.BranchMispredPI},
				{"CoherenceShare", float64(sum.CoherMiss) / float64(sum.L3Miss), m.CoherenceShare},
			} {
				if math.Abs(c.got-c.want) > 1e-12*math.Abs(c.want) {
					t.Errorf("profile %s = %.15g, metrics %.15g", c.name, c.got, c.want)
				}
			}
		})
	}
}

// TestGoldenProfile pins the committed golden profile byte for byte: the
// configuration CI's profiling smoke captures with odbrun (W=10, C=8,
// P=1, 300 measured and 100 warm-up transactions, seed 1), encoded as
// odbrun writes it, must reproduce testdata/golden/profile-w10-p1.json.
func TestGoldenProfile(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "profile-w10-p1.json"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	cfg := DefaultConfig(10, 8, 1)
	cfg.Seed = 1
	cfg.MeasureTxns = 300
	cfg.WarmupTxns = 100
	col := profile.NewCollector()
	if _, err := Run(context.Background(), cfg, WithProfiler(col)); err != nil {
		t.Fatal(err)
	}
	p := col.Profile()
	p.Meta.Label = "W=10,C=8,P=1"
	var got bytes.Buffer
	if err := p.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("profile differs from the golden (%d bytes, golden %d); a deliberate change re-records it with:\n"+
			"  go run ./cmd/odbrun -w 10 -c 8 -p 1 -txns 300 -warmup 100 -seed 1 -profile testdata/golden/profile-w10-p1.json",
			got.Len(), len(want))
	}
}

// TestProfileCPIBreakdownAtScale is the acceptance configuration: at
// W=200/P=4 the per-phase CPI breakdown must sum to the whole-run CPI
// within 1e-9, with the L3-miss share of cycles in the paper's reported
// range (Section 5 attributes roughly 60% of CPI to L3 misses at scale).
func TestProfileCPIBreakdownAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large configuration")
	}
	cfg := DefaultConfig(200, HeuristicClients(200, 4), 4)
	cfg.WarmupTxns = 200
	cfg.MeasureTxns = 600
	col := profile.NewCollector()
	m, err := Run(context.Background(), cfg, WithProfiler(col))
	if err != nil {
		t.Fatal(err)
	}
	p := col.Profile()

	var sum float64
	rows := p.PhaseBreakdown()
	if len(rows) < 5 {
		t.Fatalf("only %d phases attributed: %+v", len(rows), rows)
	}
	for _, r := range rows {
		sum += r.CPI
		if total := r.Comp.Total(); math.Abs(total-r.Cycles) > 1e-6*math.Max(1, r.Cycles) {
			t.Errorf("phase %s components sum %.3f != cycles %.3f", r.Phase, total, r.Cycles)
		}
	}
	if rel := math.Abs(sum-m.CPI) / m.CPI; rel > 1e-9 {
		t.Errorf("phase CPI sum %.12f vs whole-run CPI %.12f (rel %.3g)", sum, m.CPI, rel)
	}

	l3 := p.L3Share()
	if l3 < 0.40 || l3 > 0.80 {
		t.Errorf("L3-miss cycle share %.3f outside the paper's reported range (~0.6)", l3)
	}
	// The profile's event-model view must agree with the whole-run
	// Figure 12 assembly from the metrics path.
	if metL3 := m.Breakdown.Share()["L3"]; math.Abs(l3-metL3) > 0.05 {
		t.Errorf("profile L3 share %.3f far from metrics breakdown %.3f", l3, metL3)
	}

	// Engine phases from both modes must be present at scale: B-tree
	// descent, buffer access, logging, scheduling and syscalls.
	seen := map[string]bool{}
	for _, r := range rows {
		if r.Cycles > 0 {
			seen[r.Phase] = true
		}
	}
	for _, want := range []string{"parse", "btree", "buffer", "logcommit", "sched", "syscall"} {
		if !seen[want] {
			t.Errorf("phase %q missing from breakdown %v", want, rows)
		}
	}
}

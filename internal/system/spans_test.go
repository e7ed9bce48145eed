package system

import (
	"context"
	"reflect"
	"testing"

	"odbscale/internal/txtrace"
)

// spanCfg scales the pinned grid's points down to test-sized runs while
// still exercising warm-up, contention and multiprocessor scheduling.
func spanCfg(w, p int) Config {
	cfg := DefaultConfig(w, 8, p)
	cfg.WarmupTxns = 100
	cfg.MeasureTxns = 400
	return cfg
}

// TestRunSpannedDoesNotPerturb is the span tracer's core guarantee,
// pinned across the W × P grid the issue names: a run with WithSpans
// attached produces bit-identical Metrics to a plain run. Its per-type
// aggregates count the measured transactions exactly, warm-up excluded.
func TestRunSpannedDoesNotPerturb(t *testing.T) {
	for _, w := range []int{10, 200} {
		for _, p := range []int{1, 4} {
			cfg := spanCfg(w, p)
			plain, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := txtrace.NewTracer(txtrace.Config{HeadEvery: 8})
			spanned, err := Run(context.Background(), cfg, WithSpans(tr))
			if err != nil {
				t.Fatal(err)
			}
			if plain != spanned {
				t.Errorf("W=%d P=%d: span tracer perturbed the simulation:\nplain   %+v\nspanned %+v",
					w, p, plain, spanned)
			}
			if got := tr.MeasuredTxns(); got != uint64(cfg.MeasureTxns) {
				t.Errorf("W=%d P=%d: tracer saw %d measured txns, want %d",
					w, p, got, cfg.MeasureTxns)
			}
			// The per-type aggregates are the latency record: with a
			// warm-up, they still count measured commits only.
			var counted uint64
			for _, ts := range tr.Dump().Types {
				counted += ts.Count
			}
			if counted != spanned.Txns {
				t.Errorf("W=%d P=%d: per-type counts sum to %d, want the %d measured txns",
					w, p, counted, spanned.Txns)
			}
		}
	}
}

// TestRunSpannedDeterministic re-runs the same seed and checks the
// retained span set — every trace, segment by segment — is identical.
func TestRunSpannedDeterministic(t *testing.T) {
	run := func() *txtrace.Dump {
		tr := txtrace.NewTracer(txtrace.Config{HeadEvery: 8})
		if _, err := Run(context.Background(), spanCfg(10, 2), WithSpans(tr)); err != nil {
			t.Fatal(err)
		}
		return tr.Dump()
	}
	a, b := run(), run()
	if len(a.Traces) == 0 {
		t.Fatal("no traces retained")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("span dumps differ across reruns: %d vs %d traces", len(a.Traces), len(b.Traces))
	}
}

// TestRunSpannedExactDecomposition checks, for every retained trace of
// a real run, that the segments tile the latency window contiguously
// and the wait-state breakdown sums back to the measured latency in
// integer cycles — the tracer's exactness invariant.
func TestRunSpannedExactDecomposition(t *testing.T) {
	tr := txtrace.NewTracer(txtrace.Config{HeadEvery: 4})
	if _, err := Run(context.Background(), spanCfg(10, 2), WithSpans(tr)); err != nil {
		t.Fatal(err)
	}
	d := tr.Dump()
	if len(d.Traces) < 20 {
		t.Fatalf("only %d traces retained; want a substantial sample", len(d.Traces))
	}
	for i := range d.Traces {
		x := &d.Traces[i]
		at := x.Start
		for j := range x.Segs {
			if x.Segs[j].Start != at {
				t.Fatalf("trace seq %d: segment %d starts at %d, want %d", x.Seq, j, x.Segs[j].Start, at)
			}
			at += x.Segs[j].Dur
		}
		if at != x.Start+x.Latency {
			t.Fatalf("trace seq %d: segments cover %d cycles, want %d", x.Seq, at-x.Start, x.Latency)
		}
		b := x.Breakdown()
		if b.Total() != x.Latency {
			t.Fatalf("trace seq %d: breakdown total %d != latency %d", x.Seq, b.Total(), x.Latency)
		}
	}

	// The per-type population aggregates obey the same exactness: the
	// summed breakdown reconstructs the summed latency.
	for _, ts := range d.Types {
		if ts.Count == 0 {
			continue
		}
		if ts.Sum.Total() != ts.SumLatency {
			t.Errorf("type %s: aggregate breakdown %d != aggregate latency %d",
				ts.Type, ts.Sum.Total(), ts.SumLatency)
		}
	}
}

// TestRunSpannedTailCatchesOutliers checks the tail reservoir of a real
// run retains the slowest transactions per type: every reservoir-only
// trace must be at least as slow as the type's measured p95.
func TestRunSpannedTailCatchesOutliers(t *testing.T) {
	tr := txtrace.NewTracer(txtrace.Config{HeadEvery: -1, TailK: 4})
	if _, err := Run(context.Background(), spanCfg(10, 2), WithSpans(tr)); err != nil {
		t.Fatal(err)
	}
	d := tr.Dump()
	p95 := map[string]float64{}
	big := map[string]bool{}
	for _, ts := range d.Types {
		p95[ts.Type] = ts.P95
		// Only well-populated types pin the p95 bound: 4 slowest of N
		// sit above p95 only when 4/N < 5%.
		big[ts.Type] = ts.Count >= 100
	}
	if len(d.Traces) == 0 {
		t.Fatal("no tail traces retained")
	}
	checked := 0
	for i := range d.Traces {
		x := &d.Traces[i]
		if !big[x.Name] {
			continue
		}
		checked++
		// The histogram quantile is bucket-resolution (≤12.5% relative
		// width), so compare with that slack.
		if float64(x.Latency) < p95[x.Name]*0.875 {
			t.Errorf("tail trace seq %d (%s) latency %d below the type's p95 %.0f — reservoir kept a non-outlier",
				x.Seq, x.Name, x.Latency, p95[x.Name])
		}
	}
	if checked == 0 {
		t.Fatal("no tail traces from well-populated types")
	}
}

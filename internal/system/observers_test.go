package system

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"odbscale/internal/profile"
	"odbscale/internal/qstats"
	"odbscale/internal/telemetry"
	"odbscale/internal/txtrace"
)

// observer is one of the strictly observational options: attach builds
// a fresh observer and returns its option and a function serializing
// what it captured, in the form its reader command consumes.
type observer struct {
	name   string
	attach func(t *testing.T) (Option, func() []byte)
}

// observers lists every option that neither draws randomness nor
// schedules events (WithEMON does both).
var observers = []observer{
	{"timeline", func(t *testing.T) (Option, func() []byte) {
		tl := telemetry.NewTimeline(20)
		return WithTimeline(tl), func() []byte {
			// With WithQueueStats attached the samples also carry station
			// readings, by design; every other column must not move.
			samples := tl.Dump().Samples
			for i := range samples {
				samples[i].Stations = nil
			}
			b, err := json.Marshal(samples)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}},
	{"profile", func(t *testing.T) (Option, func() []byte) {
		col := profile.NewCollector()
		return WithProfiler(col), func() []byte {
			var b bytes.Buffer
			if err := col.Profile().Encode(&b); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}
	}},
	{"spans", func(t *testing.T) (Option, func() []byte) {
		tr := txtrace.NewTracer(txtrace.Config{HeadEvery: 8})
		return WithSpans(tr), func() []byte {
			var b bytes.Buffer
			if err := tr.Dump().Write(&b); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}
	}},
	{"qstats", func(t *testing.T) (Option, func() []byte) {
		col := qstats.NewCollector()
		return WithQueueStats(col), func() []byte {
			var b bytes.Buffer
			if err := col.Report().WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}
	}},
	{"trace", func(t *testing.T) (Option, func() []byte) {
		var b bytes.Buffer
		var refs uint64
		return WithTrace(&b, &refs), func() []byte {
			if refs == 0 {
				t.Fatal("trace captured no references")
			}
			return b.Bytes()
		}
	}},
}

// TestObserversIndependent pins that the observers are independent of
// the simulation, of each other and of the order they are attached in
// (their hooks run in option order): with all five attached, Metrics
// equal a plain run's and every artifact equals the one its observer
// captures alone, in forward and in reverse option order.
func TestObserversIndependent(t *testing.T) {
	ctx := context.Background()
	for _, w := range []int{10, 200} {
		for _, p := range []int{1, 4} {
			cfg := spanCfg(w, p)
			plain, err := Run(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			alone := make(map[string][]byte, len(observers))
			for _, o := range observers {
				opt, dump := o.attach(t)
				if _, err := Run(ctx, cfg, opt); err != nil {
					t.Fatal(err)
				}
				alone[o.name] = dump()
			}
			for _, reverse := range []bool{false, true} {
				opts := make([]Option, len(observers))
				dumps := make([]func() []byte, len(observers))
				for i, o := range observers {
					at := i
					if reverse {
						at = len(observers) - 1 - i
					}
					opts[at], dumps[i] = o.attach(t)
				}
				all, err := Run(ctx, cfg, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if all != plain {
					t.Errorf("W=%d P=%d reverse=%v: observers perturbed the simulation:\nplain %+v\nall   %+v",
						w, p, reverse, plain, all)
				}
				for i, o := range observers {
					if !bytes.Equal(dumps[i](), alone[o.name]) {
						t.Errorf("W=%d P=%d reverse=%v: %s differs from a run with it alone",
							w, p, reverse, o.name)
					}
				}
			}
		}
	}
}

// BenchmarkRunObservers measures each observer's cost on one mid-sized
// configuration (W=200, P=4, 1,200 measured transactions): "bare" is the
// plain simulator, the cost of one data point, and every other case
// attaches one observer. The observability contract is that each stays
// within 2% of "bare".
func BenchmarkRunObservers(b *testing.B) {
	cfg := DefaultConfig(200, HeuristicClients(200, 4), 4)
	cfg.MeasureTxns = 1200
	cfg.WarmupTxns = 300
	cases := []struct {
		name   string
		attach func() []Option
	}{
		{"bare", func() []Option { return nil }},
		{"timeline", func() []Option { return []Option{WithTimeline(telemetry.NewTimeline(0))} }},
		{"profiler", func() []Option { return []Option{WithProfiler(profile.NewCollector())} }},
		{"spans", func() []Option { return []Option{WithSpans(txtrace.NewTracer(txtrace.Config{}))} }},
		{"qstats", func() []Option { return []Option{WithQueueStats(qstats.NewCollector())} }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var m Metrics
			for i := 0; i < b.N; i++ {
				var err error
				if m, err = Run(context.Background(), cfg, c.attach()...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(m.TPS, "TPS")
		})
	}
}

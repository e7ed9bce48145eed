package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"odbscale/internal/cpu"
	"odbscale/internal/odb"
	"odbscale/internal/profile"
	"odbscale/internal/qstats"
	"odbscale/internal/sim"
	"odbscale/internal/system"
	"odbscale/internal/txtrace"
)

// Attached handles of the built-in instruments, as a fake run sees them.
type (
	profileRun = storedRun[*profile.Profile, *profile.Collector]
	spansRun   = storedRun[*txtrace.Dump, *txtrace.Tracer]
	qstatsRun  = storedRun[*qstats.Report, *qstats.Collector]
)

// fakeObserved emulates an instrumented measurement run: it feeds each
// attached instrument a payload derived only from the configuration, so
// two campaigns covering the same points converge on identical
// per-point payloads regardless of interruption.
type fakeObserved struct {
	mu    sync.Mutex
	delay time.Duration
	runs  int
}

func (f *fakeObserved) run(ctx context.Context, cfg system.Config, att []Attached) (system.Metrics, error) {
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return system.Metrics{}, ctx.Err()
		}
	} else if err := ctx.Err(); err != nil {
		return system.Metrics{}, err
	}
	f.mu.Lock()
	f.runs++
	f.mu.Unlock()
	w := cfg.Warehouses
	for _, a := range att {
		switch a := a.(type) {
		case *refRun:
			a.n = uint64(w)*1000 + uint64(cfg.Clients)
		case *profileRun:
			col := a.col
			col.SetMeta(profile.Meta{Warehouses: w, Clients: cfg.Clients, Processors: cfg.Processors, Scale: 1})
			col.AddChunk(profile.User,
				[]profile.Share{
					{Kind: profile.KindOf(odb.NewOrder), Phase: odb.PhaseBTree, Instr: uint64(w) * 1000},
					{Kind: profile.KindOf(odb.Payment), Phase: odb.PhaseBuffer, Instr: 500},
				},
				uint64(w)*1000+500, float64(w)*2500.25, cpu.Events{L3Miss: uint64(w), BusLatency: float64(w) * 3})
			col.AddChunk(profile.OS,
				[]profile.Share{{Kind: profile.KindKernel, Phase: odb.PhaseSched, Instr: 200}},
				200, 900, cpu.Events{Mispred: 4})
			col.Finalize(float64(w)/10, 10)
		case *spansRun:
			tr := a.col
			tr.SetMeta(txtrace.Meta{Warehouses: w, Clients: cfg.Clients, Processors: cfg.Processors,
				Seed: cfg.Seed, FreqHz: cfg.Machine.FreqHz})
			ps := tr.NewProcState(0)
			for i := 0; i < 10; i++ {
				start := sim.Time(i * 10000)
				lat := sim.Time(w*100 + i*37)
				ps.Begin(odb.NewOrder, start)
				ps.AddInstr(odb.PhaseBTree, uint64(w))
				ps.EndChunk(start, lat, uint64(w))
				tr.End(ps, start+lat, true)
			}
		case *qstatsRun:
			in := &qstats.Input{
				Meta:          qstats.Meta{Warehouses: w, Clients: cfg.Clients, Processors: cfg.Processors, Seed: cfg.Seed},
				ElapsedCycles: 1e9,
				CyclesPerMS:   1e6,
				Commits:       uint64(cfg.MeasureTxns),
			}
			in.Counts[qstats.Disk] = qstats.Counts{
				Arrivals: uint64(w), Completions: uint64(w),
				BusyCycles: float64(w) * 1e6, WaitCycles: float64(w) * 5e5,
			}
			in.Servers[qstats.Disk] = 4
			a.col.Publish(qstats.Build(in))
		}
	}
	return system.Metrics{
		Warehouses: w, Clients: cfg.Clients, Processors: cfg.Processors,
		Txns: uint64(cfg.MeasureTxns),
	}, nil
}

// refCount is an instrument defined outside the built-in three, from
// nothing but the package's exported contract: it counts the memory
// references each measurement run traces (system.WithTrace) and
// checkpoints the count.
type refCount struct{ st *Store[uint64] }

func (r refCount) Kind() string { return "refs" }

func (r refCount) Start(point string, _ system.Config) Attached {
	return &refRun{st: r.st, point: point}
}

func (r refCount) Restore(point string, raw json.RawMessage) error {
	var n uint64
	if err := json.Unmarshal(raw, &n); err != nil {
		return err
	}
	r.st.Put(point, n)
	return nil
}

type refRun struct {
	st    *Store[uint64]
	point string
	n     uint64
}

func (r *refRun) Option() system.Option { return system.WithTrace(io.Discard, &r.n) }

func (r *refRun) Finish(ok bool) (json.RawMessage, error) {
	if !ok {
		return nil, nil
	}
	r.st.Put(r.point, r.n)
	return json.Marshal(r.n)
}

// storeOf reaches the Store behind a built-in stored instrument.
func storeOf[T, C any](in Instrument) *Store[T] { return in.(*stored[T, C]).store }

// sameStores checks two stores hold the same point set, every point of
// the campaign, and pairwise-equal payloads by same.
func sameStores[T any](t *testing.T, a, c *Store[T], total int, same func(key string, a, c T)) {
	t.Helper()
	keysA, keysC := a.Keys(), c.Keys()
	sort.Strings(keysA)
	sort.Strings(keysC)
	if !reflect.DeepEqual(keysA, keysC) {
		t.Fatalf("store keys differ:\n%v\n%v", keysA, keysC)
	}
	if len(keysA) != total {
		t.Fatalf("store holds %d payloads, want %d", len(keysA), total)
	}
	for _, k := range keysA {
		same(k, a.Get(k), c.Get(k))
	}
}

// instrumentCases are the instruments under the kill/resume test, the
// built-in three and refCount: how to build each over fresh state, and
// how an uninterrupted campaign's results must compare with a
// killed-and-resumed one's.
var instrumentCases = []struct {
	kind  string
	build func() Instrument
	check func(t *testing.T, ref, resumed Instrument, total, killed int)
}{
	{
		kind:  "profile",
		build: func() Instrument { return Profiles(NewStore[*profile.Profile]()) },
		check: func(t *testing.T, ref, resumed Instrument, total, _ int) {
			sameStores(t, storeOf[*profile.Profile, *profile.Collector](ref),
				storeOf[*profile.Profile, *profile.Collector](resumed), total,
				func(k string, pa, pc *profile.Profile) {
					if !reflect.DeepEqual(pa.Meta, pc.Meta) || !reflect.DeepEqual(pa.Frames, pc.Frames) {
						t.Errorf("profile %q differs after kill/resume:\n%+v\n%+v", k, pa, pc)
					}
					if pa.Meta.Label != k {
						t.Errorf("profile %q labeled %q, want the point name", k, pa.Meta.Label)
					}
				})
		},
	},
	{
		kind: "spans",
		build: func() Instrument {
			return Spans(txtrace.Config{HeadEvery: 2, TailK: 2}, NewStore[*txtrace.Dump]())
		},
		check: func(t *testing.T, ref, resumed Instrument, total, _ int) {
			sameStores(t, storeOf[*txtrace.Dump, *txtrace.Tracer](ref),
				storeOf[*txtrace.Dump, *txtrace.Tracer](resumed), total,
				func(k string, da, dc *txtrace.Dump) {
					if !reflect.DeepEqual(da, dc) {
						t.Errorf("dump %q differs after kill/resume:\nuninterrupted %+v\nresumed       %+v", k, da, dc)
					}
					if da.Meta.Label != k {
						t.Errorf("dump %q labeled %q, want the point name", k, da.Meta.Label)
					}
					if len(da.Traces) == 0 {
						t.Errorf("dump %q retained no traces", k)
					}
				})
		},
	},
	{
		kind:  "qstats",
		build: func() Instrument { return QueueStats(NewStore[*qstats.Report]()) },
		check: func(t *testing.T, ref, resumed Instrument, total, _ int) {
			sameStores(t, storeOf[*qstats.Report, *qstats.Collector](ref),
				storeOf[*qstats.Report, *qstats.Collector](resumed), total,
				func(k string, ra, rc *qstats.Report) {
					if !reflect.DeepEqual(ra, rc) {
						t.Errorf("report %q differs after kill/resume:\nuninterrupted %+v\nresumed       %+v", k, ra, rc)
					}
					if ra.Meta.Label != k {
						t.Errorf("report %q labeled %q, want the point name", k, ra.Meta.Label)
					}
					if ra.Bottleneck != "disk" {
						t.Errorf("report %q bottleneck %q, want disk", k, ra.Bottleneck)
					}
				})
		},
	},
	{
		kind:  "refs",
		build: func() Instrument { return refCount{st: NewStore[uint64]()} },
		check: func(t *testing.T, ref, resumed Instrument, total, _ int) {
			sameStores(t, ref.(refCount).st, resumed.(refCount).st, total,
				func(k string, na, nc uint64) {
					if na == 0 || na != nc {
						t.Errorf("point %s: %d refs after kill/resume, %d uninterrupted", k, nc, na)
					}
				})
		},
	},
}

// TestInstrumentKillResume is every instrument's crash-consistency
// guarantee: a campaign killed mid-flight and resumed with fresh
// instrument state must converge on exactly the payloads of an
// uninterrupted campaign — completed points come back from the
// checkpoint, not from re-runs. All instruments ride along together, as
// the built-in ones do under odbsweep.
func TestInstrumentKillResume(t *testing.T) {
	total := len(testWarehouses) * len(testProcessors)
	specFor := func(path string) (Spec, []Instrument) {
		spec := testSpec()
		spec.AutoTune = false
		spec.Clients = 8
		spec.CheckpointPath = path
		for _, tc := range instrumentCases {
			spec.Instruments = append(spec.Instruments, tc.build())
		}
		return spec, spec.Instruments
	}
	dir := t.TempDir()

	// Reference: uninterrupted campaign.
	specA, insA := specFor(filepath.Join(dir, "ckA.json"))
	if _, err := (&Runner{Spec: specA, RunFunc: (&fakeObserved{}).run}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Kill after three successful points.
	pathB := filepath.Join(dir, "ckB.json")
	specB, _ := specFor(pathB)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &recorder{onFinished: func(successes int) {
		if successes == 3 {
			cancel()
		}
	}}
	specB.Observer = obs
	fB := &fakeObserved{delay: 2 * time.Millisecond}
	if _, err := (&Runner{Spec: specB, RunFunc: fB.run}).Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
	killed := len(obs.successes())
	if killed < 3 || killed >= total {
		t.Fatalf("kill finished %d of %d points — cancellation did not interrupt", killed, total)
	}
	cp, err := LoadCheckpoint(pathB)
	if err != nil {
		t.Fatal(err)
	}

	// Resume against the same checkpoint with fresh state.
	specC, insC := specFor(pathB)
	specC.Resume = true
	fC := &fakeObserved{}
	res, err := (&Runner{Spec: specC, RunFunc: fC.run}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.PointsResumed != killed {
		t.Fatalf("resumed %d points, checkpoint held %d", res.Summary.PointsResumed, killed)
	}
	if fC.runs != total-killed {
		t.Fatalf("resume executed %d runs, want the %d incomplete points", fC.runs, total-killed)
	}

	for i, tc := range instrumentCases {
		t.Run(tc.kind, func(t *testing.T) {
			for _, pt := range cp.Points {
				if _, ok := pt.Flight[tc.kind]; !ok {
					t.Errorf("checkpoint point W=%d P=%d has no %q payload", pt.W, pt.P, tc.kind)
				}
			}
			tc.check(t, insA[i], insC[i], total, killed)
		})
	}
}

// TestResumeV1Checkpoint resumes from a checkpoint written by the
// campaign runner before instruments existed (odbsweep -w 10,25 -p 1
// -c 8 -txns 200 -profile -spans -qstats -listen -checkpoint): every
// point must come back with its profile, spans and qstats payloads and
// no run may execute. The file also holds the retired "hists" kind,
// which no instrument claims, so the resume ignores it.
func TestResumeV1Checkpoint(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "pointflight-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	profiles := NewStore[*profile.Profile]()
	spans := NewStore[*txtrace.Dump]()
	stations := NewStore[*qstats.Report]()
	spec := Spec{
		Machine: system.XeonQuad(), Tuning: system.DefaultTuning(),
		Engine: "btree", Seed: 1,
		WarmupTxns: 600, MeasureTxns: 200, TuneTxns: 1200,
		TargetUtil: 0.9, MinClients: 8, MaxClients: 64, Clients: 8,
		Warehouses: []int{10, 25}, Processors: []int{1},
		CheckpointPath: path, Resume: true,
		Instruments: []Instrument{Profiles(profiles), Spans(txtrace.Config{}, spans), QueueStats(stations)},
	}
	runs := 0
	fake := func(context.Context, system.Config, []Attached) (system.Metrics, error) {
		runs++
		return system.Metrics{}, nil
	}
	res, err := (&Runner{Spec: spec, RunFunc: fake}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if runs != 0 || res.Summary.Runs != 0 || res.Summary.PointsResumed != 2 {
		t.Fatalf("resume ran %d runs (summary %+v), want 0 runs and 2 resumed points", runs, res.Summary)
	}

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range cp.Points {
		key := PointName(pt.W, pt.P)
		// The resume above succeeded with this unclaimed payload present.
		if len(pt.Flight["hists"]) == 0 {
			t.Errorf("%s: checkpoint holds no hists payload for the resume to ignore", key)
		}
		for kind, got := range map[string]any{
			"profile": profiles.Get(key), "spans": spans.Get(key), "qstats": stations.Get(key),
		} {
			// The restored payload re-encodes to exactly what was saved.
			want := pt.Flight[kind]
			enc, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			var a, b bytes.Buffer
			if err := json.Compact(&a, want); err != nil {
				t.Fatal(err)
			}
			if err := json.Compact(&b, enc); err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("%s %s: restored payload differs from the checkpoint", key, kind)
			}
		}
		if p := profiles.Get(key); p.Meta.Label != key || len(p.Frames) == 0 {
			t.Errorf("%s: restored profile %+v", key, p.Meta)
		}
		if d := spans.Get(key); d.Meta.Label != key || len(d.Traces) == 0 {
			t.Errorf("%s: restored dump %+v", key, d.Meta)
		}
		if r := stations.Get(key); r.Meta.Label != key || r.Bottleneck == "" {
			t.Errorf("%s: restored report %+v", key, r.Meta)
		}
	}
}

package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"odbscale/internal/cpu"
	"odbscale/internal/odb"
	"odbscale/internal/profile"
	"odbscale/internal/qstats"
	"odbscale/internal/sim"
	"odbscale/internal/system"
	"odbscale/internal/telemetry"
	"odbscale/internal/txtrace"
)

// Attached handles of the built-in instruments, as a fake run sees them.
type (
	profileRun  = storedRun[profile.Profile, *profile.Collector]
	spansRun    = storedRun[txtrace.Dump, *txtrace.Tracer]
	qstatsRun   = storedRun[qstats.Report, *qstats.Collector]
	timelineRun = storedRun[telemetry.TimelineDump, *telemetry.Timeline]
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
		case *timelineRun:
			a.col.EndPhase(0.05, 20)
			a.col.Push(telemetry.Sample{SimSeconds: 0.1, Measuring: true, TPS: float64(w) * 10.5,
				CPUUtil: []float64{0.75}, Txns: uint64(w)})
			a.col.EndPhase(0.25, 20+uint64(cfg.MeasureTxns))
		}
	}
	return system.Metrics{
		Warehouses: w, Clients: cfg.Clients, Processors: cfg.Processors,
		Txns: uint64(cfg.MeasureTxns),
	}, nil
}

// refCount is an instrument defined outside the built-in four, from
// nothing but the package's exported contract: it counts the memory
// references each measurement run traces (system.WithTrace) and
// checkpoints the count.
type refCount struct{}

func (refCount) Kind() string { return "refs" }

func (refCount) Start(string) Attached { return &refRun{} }

func (refCount) Write(w io.Writer, raw json.RawMessage) error {
	var n uint64
	if err := json.Unmarshal(raw, &n); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, n)
	return err
}

type refRun struct{ n uint64 }

func (r *refRun) Option() system.Option { return system.WithTrace(io.Discard, &r.n) }

func (r *refRun) Finish(ok bool) (json.RawMessage, error) {
	if !ok {
		return nil, nil
	}
	return json.Marshal(r.n)
}

// payloads checks that two campaigns' Results hand out the same payload
// of kind at every point (compared compact: a resumed payload keeps the
// checkpoint file's indentation) and returns the first's, decoded, by
// point name.
func payloads[T any](t *testing.T, a, c *Result, kind string) map[string]*T {
	t.Helper()
	out := map[string]*T{}
	for _, p := range a.Processors {
		for _, w := range a.Warehouses {
			pa, _ := a.Point(w, p)
			pc, _ := c.Point(w, p)
			name := pointName(w, pa.C, p)
			var ra, rc bytes.Buffer
			if err := json.Compact(&ra, pa.Flight[kind]); err != nil {
				t.Fatalf("%s %s: %v", name, kind, err)
			}
			if err := json.Compact(&rc, pc.Flight[kind]); err != nil {
				t.Fatalf("%s %s: %v", name, kind, err)
			}
			if !bytes.Equal(ra.Bytes(), rc.Bytes()) {
				t.Errorf("%s %s differs after kill/resume:\nuninterrupted %s\nresumed       %s", name, kind, ra.Bytes(), rc.Bytes())
			}
			out[name] = decodeAs[T](t, ra.Bytes())
		}
	}
	return out
}

// instrumentCases are the instruments under the kill/resume test, the
// built-in four and refCount: how to build each, and what each point's
// payload in an uninterrupted campaign's Result must hold, given that a
// killed-and-resumed campaign's Result hands out the same payloads.
var instrumentCases = []struct {
	kind  string
	build func() Instrument
	check func(t *testing.T, ref, resumed *Result)
}{
	{
		kind:  "profile",
		build: Profiles,
		check: func(t *testing.T, ref, resumed *Result) {
			for k, p := range payloads[profile.Profile](t, ref, resumed, "profile") {
				if p.Meta.Label != k || len(p.Frames) == 0 {
					t.Errorf("profile %q labeled %q with %d frames, want the point name and frames", k, p.Meta.Label, len(p.Frames))
				}
			}
		},
	},
	{
		kind:  "spans",
		build: func() Instrument { return Spans(txtrace.Config{HeadEvery: 2, TailK: 2}) },
		check: func(t *testing.T, ref, resumed *Result) {
			for k, d := range payloads[txtrace.Dump](t, ref, resumed, "spans") {
				if d.Meta.Label != k {
					t.Errorf("dump %q labeled %q, want the point name", k, d.Meta.Label)
				}
				if len(d.Traces) == 0 {
					t.Errorf("dump %q retained no traces", k)
				}
			}
		},
	},
	{
		kind:  "qstats",
		build: QueueStats,
		check: func(t *testing.T, ref, resumed *Result) {
			for k, r := range payloads[qstats.Report](t, ref, resumed, "qstats") {
				if r.Meta.Label != k {
					t.Errorf("report %q labeled %q, want the point name", k, r.Meta.Label)
				}
				if r.Bottleneck != "disk" {
					t.Errorf("report %q bottleneck %q, want disk", k, r.Bottleneck)
				}
			}
		},
	},
	{
		kind:  "timeline",
		build: func() Instrument { return Timeline(20) },
		check: func(t *testing.T, ref, resumed *Result) {
			for k, d := range payloads[telemetry.TimelineDump](t, ref, resumed, "timeline") {
				if d.Label != k || len(d.Phases) != 2 || d.Phases[1].Name != "measure" || len(d.Samples) != 1 {
					t.Errorf("timeline %q labeled %q with phases %+v and %d samples, want the point name, [warmup measure] and 1",
						k, d.Label, d.Phases, len(d.Samples))
				}
			}
		},
	},
	{
		kind:  "refs",
		build: func() Instrument { return refCount{} },
		check: func(t *testing.T, ref, resumed *Result) {
			for k, n := range payloads[uint64](t, ref, resumed, "refs") {
				if *n == 0 {
					t.Errorf("point %s: no refs counted", k)
				}
			}
		},
	},
}

// TestInstrumentKillResume is every instrument's crash-consistency
// guarantee: a campaign killed mid-flight and resumed with fresh
// instruments must hand out exactly the payloads of an uninterrupted
// campaign in its Result — completed points come back from the
// checkpoint, not from re-runs. All instruments ride along together, as
// the built-in ones do under odbsweep.
func TestInstrumentKillResume(t *testing.T) {
	total := len(testWarehouses) * len(testProcessors)
	specFor := func(path string) Spec {
		spec := testSpec()
		spec.AutoTune = false
		spec.Clients = 8
		spec.CheckpointPath = path
		for _, tc := range instrumentCases {
			spec.Instruments = append(spec.Instruments, tc.build())
		}
		return spec
	}
	dir := t.TempDir()

	// Reference: uninterrupted campaign.
	resA, err := (&Runner{Spec: specFor(filepath.Join(dir, "ckA.json")), RunFunc: (&fakeObserved{}).run}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Kill after three successful points.
	pathB := filepath.Join(dir, "ckB.json")
	specB := specFor(pathB)
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
	specC := specFor(pathB)
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

	for _, tc := range instrumentCases {
		t.Run(tc.kind, func(t *testing.T) {
			for _, pt := range cp.Points {
				if _, ok := pt.Flight[tc.kind]; !ok {
					t.Errorf("checkpoint point W=%d P=%d has no %q payload", pt.W, pt.P, tc.kind)
				}
			}
			tc.check(t, resA, res)
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
	spec := Spec{
		Machine: system.XeonQuad(), Tuning: system.DefaultTuning(),
		Engine: "btree", Seed: 1,
		WarmupTxns: 600, MeasureTxns: 200, TuneTxns: 1200,
		TargetUtil: 0.9, MinClients: 8, MaxClients: 64, Clients: 8,
		Warehouses: []int{10, 25}, Processors: []int{1},
		CheckpointPath: path, Resume: true,
		Instruments: []Instrument{Profiles(), Spans(txtrace.Config{}), QueueStats()},
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
		// The file predates the client count in point names, so its
		// payloads keep the labels it stored.
		key := fmt.Sprintf("W=%d,P=%d", pt.W, pt.P)
		// The resume above succeeded with this unclaimed payload present.
		if len(pt.Flight["hists"]) == 0 {
			t.Errorf("%s: checkpoint holds no hists payload for the resume to ignore", key)
		}
		got, _ := res.Point(pt.W, pt.P)
		p := decodeAs[profile.Profile](t, got.Flight["profile"])
		d := decodeAs[txtrace.Dump](t, got.Flight["spans"])
		r := decodeAs[qstats.Report](t, got.Flight["qstats"])
		for kind, got := range map[string]any{"profile": p, "spans": d, "qstats": r} {
			// The resumed payload decodes and re-encodes to exactly what
			// was saved.
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
		if p.Meta.Label != key || len(p.Frames) == 0 {
			t.Errorf("%s: restored profile %+v", key, p.Meta)
		}
		if d.Meta.Label != key || len(d.Traces) == 0 {
			t.Errorf("%s: restored dump %+v", key, d.Meta)
		}
		if r.Meta.Label != key || r.Bottleneck == "" {
			t.Errorf("%s: restored report %+v", key, r.Meta)
		}
	}
}

// decodeAs decodes one payload.
func decodeAs[T any](t *testing.T, raw json.RawMessage) *T {
	t.Helper()
	v := new(T)
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestWriteMatchesCollectorEncoding holds each built-in instrument's
// writer to its collector's own encoder: the file written from a
// point's checkpointed payload must be byte-equal to what Profile.Encode,
// Dump.Write, Report.WriteJSON or TimelineDump.Write writes for the same
// run. Copying the raw
// payload through, even re-indented, would not do: profile.Encode sorts
// frames, and the collector emits them in another order.
func TestWriteMatchesCollectorEncoding(t *testing.T) {
	spec := testSpec()
	spec.AutoTune = false
	spec.Clients = 8
	spec.Warehouses, spec.Processors = []int{25}, []int{2}
	spec.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	spec.Instruments = []Instrument{Profiles(), Spans(txtrace.Config{HeadEvery: 2, TailK: 2}), QueueStats(), Timeline(20)}
	if _, err := (&Runner{Spec: spec, RunFunc: (&fakeObserved{}).run}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(spec.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}

	// The same run again, attached by hand, for the collectors' output.
	name := pointName(25, 8, 2)
	cfg := spec.config(25, 8, 2, spec.MeasureTxns)
	att := make([]Attached, len(spec.Instruments))
	for i, in := range spec.Instruments {
		att[i] = in.Start(name)
	}
	if _, err := (&fakeObserved{}).run(context.Background(), cfg, att); err != nil {
		t.Fatal(err)
	}
	own := map[string]func(io.Writer) error{
		"profile": func(w io.Writer) error {
			p := att[0].(*profileRun).col.Profile()
			p.Meta.Label = name
			return p.Encode(w)
		},
		"spans": func(w io.Writer) error {
			d := att[1].(*spansRun).col.Dump()
			d.Meta.Label = name
			return d.Write(w)
		},
		"qstats": func(w io.Writer) error {
			r := att[2].(*qstatsRun).col.Report()
			r.Meta.Label = name
			return r.WriteJSON(w)
		},
		"timeline": func(w io.Writer) error {
			d := att[3].(*timelineRun).col.Dump()
			d.Label = name
			return d.Write(w)
		},
	}

	for _, in := range spec.Instruments {
		kind := in.Kind()
		raw := cp.Points[0].Flight[kind]
		var got, want bytes.Buffer
		if err := in.Write(&got, raw); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := own[kind](&want); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: written file differs from the collector's encoding:\n%s\nwant\n%s", kind, got.Bytes(), want.Bytes())
		}
		if kind == "profile" {
			var copied bytes.Buffer
			if err := json.Indent(&copied, raw, "", " "); err != nil {
				t.Fatal(err)
			}
			copied.WriteByte('\n')
			if bytes.Equal(copied.Bytes(), want.Bytes()) {
				t.Error("the profile payload is already in encoder order, so a writer that copies raw JSON through would pass")
			}
		}
	}
}

// TestResumeRejectsUndecodablePayload resumes from a checkpoint whose
// point holds a profile payload that does not decode: the campaign must
// fail naming the point, without running it again.
func TestResumeRejectsUndecodablePayload(t *testing.T) {
	spec := testSpec()
	spec.AutoTune = false
	spec.Clients = 8
	spec.Warehouses, spec.Processors = []int{10}, []int{1}
	spec.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	spec.Resume = true
	spec.Instruments = []Instrument{Profiles()}
	cp := Checkpoint{
		Version: checkpointVersion,
		Spec:    spec.fingerprint(),
		Points: []CheckpointPoint{{W: 10, P: 1, C: 8,
			Flight: map[string]json.RawMessage{"profile": json.RawMessage(`{"frames":"not a list"}`)}}},
	}
	if err := cp.Save(spec.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	f := &fakeObserved{}
	_, err := (&Runner{Spec: spec, RunFunc: f.run}).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "W=10 P=1") {
		t.Fatalf("err = %v, want a failure naming W=10 P=1", err)
	}
	if f.runs != 0 {
		t.Fatalf("resume ran %d runs, want 0", f.runs)
	}
}

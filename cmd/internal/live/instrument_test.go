package live

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"odbscale/internal/campaign"
	"odbscale/internal/system"
	"odbscale/internal/telemetry"
)

// refCount is a test-only fifth instrument built from nothing but the
// campaign package's exported contract: it counts the memory references
// each measurement run traces (system.WithTrace) and checkpoints the
// count.
type refCount struct{ st *campaign.Store[uint64] }

func (r refCount) Kind() string                { return "refs" }
func (r refCount) Begin(int) campaign.Observer { return nil }

func (r refCount) Start(point string, _ system.Config) campaign.Attached {
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
	st    *campaign.Store[uint64]
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

// TestCampaignFifthInstrument adds an instrument without touching any
// non-test file: its payload is checkpointed next to the flight
// recorder's, restored when the killed campaign resumes, and served as
// one extra live endpoint.
func TestCampaignFifthInstrument(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	const total = 3
	specFor := func(st *campaign.Store[uint64]) (campaign.Spec, *telemetry.CampaignRecorder) {
		flight := telemetry.NewCampaignRecorder(telemetry.Config{})
		spec := liveSpec(path, flight)
		spec.Warehouses, spec.Processors = []int{2, 4, 6}, []int{1}
		spec.Instruments = append(spec.Instruments, refCount{st: st})
		return spec, flight
	}

	// Phase A: kill at the first completed point.
	stA := campaign.NewStore[uint64]("refs")
	specA, _ := specFor(stA)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	recA := &killObserver{onFinished: func(int) { cancel() }}
	specA.Observer = recA
	if _, err := campaign.Run(ctx, specA); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed campaign returned %v, want context.Canceled", err)
	}
	doneA, _ := recA.counts()
	if doneA < 1 || doneA >= total {
		t.Fatalf("phase A completed %d points, want a strict subset of %d", doneA, total)
	}
	cp, err := campaign.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Points) != doneA {
		t.Fatalf("checkpoint holds %d points, want %d", len(cp.Points), doneA)
	}
	for _, pt := range cp.Points {
		if _, ok := pt.Flight["refs"]; !ok {
			t.Errorf("checkpoint point W=%d P=%d has no refs payload (has %v)", pt.W, pt.P, pt.Flight)
		}
		if _, ok := pt.Flight["hists"]; !ok {
			t.Errorf("checkpoint point W=%d P=%d lost the flight payload", pt.W, pt.P)
		}
	}

	// Phase B: resume with a fresh store, served live.
	stB := campaign.NewStore[uint64]("refs")
	specB, flightB := specFor(stB)
	specB.Resume = true
	recB := &killObserver{}
	specB.Observer = recB
	srv, err := Serve("127.0.0.1:0", flightB, Endpoint{Path: "/refs", Write: stB.WriteJSON})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := campaign.Run(context.Background(), specB); err != nil {
		t.Fatal(err)
	}
	doneB, resumedB := recB.counts()
	if resumedB != doneA || doneB != total-doneA {
		t.Fatalf("resume restored %d and ran %d points, want %d and %d", resumedB, doneB, doneA, total-doneA)
	}
	for _, k := range stA.Keys() {
		if stB.Get(k) != stA.Get(k) || stA.Get(k) == 0 {
			t.Errorf("point %s: restored %d refs, phase A counted %d", k, stB.Get(k), stA.Get(k))
		}
	}

	base := "http://" + srv.Addr()
	body, ct, err := httpGet(base + "/refs")
	if err != nil {
		t.Fatal(err)
	}
	if ct != contentTypeJSON {
		t.Errorf("/refs content type = %q", ct)
	}
	var entries []struct {
		Key  string `json:"key"`
		Refs uint64 `json:"refs"`
	}
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("/refs JSON: %v\n%s", err, body)
	}
	if len(entries) != total {
		t.Fatalf("/refs serves %d points, want %d:\n%s", len(entries), total, body)
	}
	for _, e := range entries {
		if e.Refs == 0 || e.Refs != stB.Get(e.Key) {
			t.Errorf("/refs entry %+v, store holds %d", e, stB.Get(e.Key))
		}
	}
	if idx, _, err := httpGet(base + "/"); err != nil || !strings.Contains(idx, "/refs") {
		t.Errorf("index should advertise /refs: %q (err %v)", idx, err)
	}
}

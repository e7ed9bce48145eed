package live

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"odbscale/internal/campaign"
	"odbscale/internal/cpu"
	"odbscale/internal/odb"
	"odbscale/internal/profile"
	"odbscale/internal/system"
	"odbscale/internal/telemetry"
	"odbscale/internal/txtrace"
)

// httpGet fetches url and returns the body and content type; non-200
// statuses are errors.
func httpGet(url string) (body, contentType string, err error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return string(b), resp.Header.Get("Content-Type"), nil
}

// gaugeValue scrapes one unlabeled gauge sample from OpenMetrics text.
func gaugeValue(t *testing.T, metrics, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("gauge %s: unparseable value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("gauge %s missing from metrics:\n%s", name, metrics)
	return 0
}

// TestMuxEndpoints checks routing, content types and the 404 path over
// a single-run recorder.
func TestMuxEndpoints(t *testing.T) {
	rec := telemetry.NewRecorder(telemetry.Config{})
	rec.SetTarget(10)
	rec.ObserveSpan("Payment", 1200)
	rec.PushSample(telemetry.Sample{SimSeconds: 0.5, TPS: 100})

	ts := httptest.NewServer(NewMux(rec))
	defer ts.Close()

	metrics, ct, err := httpGet(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct != contentTypeOM {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(metrics, "# EOF") || !strings.Contains(metrics, "odb_tps") {
		t.Errorf("/metrics body incomplete:\n%s", metrics)
	}

	tl, ct, err := httpGet(ts.URL + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	if ct != contentTypeJSON {
		t.Errorf("/timeline content type = %q", ct)
	}
	var tlDoc struct {
		Samples []telemetry.Sample `json:"samples"`
	}
	if err := json.Unmarshal([]byte(tl), &tlDoc); err != nil || len(tlDoc.Samples) != 1 {
		t.Errorf("/timeline = %q (err %v)", tl, err)
	}

	prog, _, err := httpGet(ts.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var p telemetry.RunProgress
	if err := json.Unmarshal([]byte(prog), &p); err != nil || p.TargetTxns != 10 {
		t.Errorf("/progress = %q (err %v)", prog, err)
	}

	if idx, _, err := httpGet(ts.URL + "/"); err != nil || !strings.Contains(idx, "/metrics") {
		t.Errorf("index = %q (err %v)", idx, err)
	}
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/nope status = %d, want 404", resp.StatusCode)
	}
}

// TestProfileEndpoint checks /profile appears exactly when it is
// registered, and serves the profile store's JSON payload.
func TestProfileEndpoint(t *testing.T) {
	// A plain flight source must not expose /profile.
	plain := httptest.NewServer(NewMux(telemetry.NewRecorder(telemetry.Config{})))
	defer plain.Close()
	resp, err := http.Get(plain.URL + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/profile on a plain source: status %d, want 404", resp.StatusCode)
	}

	st := campaign.NewStore[*profile.Profile]("profile")
	col := profile.NewCollector()
	col.SetMeta(profile.Meta{Label: "W=10,P=1", Scale: 1})
	col.AddChunk(profile.User,
		[]profile.Share{{Kind: profile.KindOf(odb.NewOrder), Phase: odb.PhaseBTree, Instr: 1000}},
		1000, 2500, cpu.Events{L3Miss: 4})
	st.Put("W=10,P=1", col.Profile())
	ts := httptest.NewServer(NewMux(telemetry.NewCampaignRecorder(telemetry.Config{}),
		Endpoint{Path: "/profile", Write: st.WriteJSON}))
	defer ts.Close()
	body, ct, err := httpGet(ts.URL + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	if ct != contentTypeJSON {
		t.Errorf("/profile content type = %q", ct)
	}
	var entries []struct {
		Key     string           `json:"key"`
		Profile *profile.Profile `json:"profile"`
	}
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("/profile JSON: %v\n%s", err, body)
	}
	if len(entries) != 1 || entries[0].Key != "W=10,P=1" || len(entries[0].Profile.Frames) == 0 {
		t.Errorf("/profile payload = %s", body)
	}
	if idx, _, err := httpGet(ts.URL + "/"); err != nil || !strings.Contains(idx, "/profile") {
		t.Errorf("index should advertise /profile: %q (err %v)", idx, err)
	}
}

// TestMetricsResponseFormat pins the OpenMetrics exposition contract:
// the exact content type (version and charset included) and a body that
// ends with the "# EOF\n" terminator — scrapers reject anything else.
func TestMetricsResponseFormat(t *testing.T) {
	rec := telemetry.NewRecorder(telemetry.Config{})
	rec.ObserveSpan("NewOrder", 900)
	ts := httptest.NewServer(NewMux(rec))
	defer ts.Close()

	body, ct, err := httpGet(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if want := "application/openmetrics-text; version=1.0.0; charset=utf-8"; ct != want {
		t.Errorf("/metrics content type = %q, want %q", ct, want)
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		tail := body
		if len(tail) > 40 {
			tail = tail[len(tail)-40:]
		}
		t.Errorf("/metrics body does not end with the EOF terminator; tail = %q", tail)
	}
	if strings.Count(body, "# EOF") != 1 {
		t.Errorf("/metrics body has %d EOF markers, want exactly 1", strings.Count(body, "# EOF"))
	}
	// An empty histogram must not emit quantile samples (OpenMetrics has
	// no NaN), while the recorder's observed type must.
	if !strings.Contains(body, `odb_txn_latency_us_quantile{txn_type="NewOrder"`) {
		t.Errorf("/metrics missing quantile samples for the observed type:\n%s", body)
	}
}

// TestTraceEndpoint checks /traces appears exactly when it is
// registered, and serves the tracer's dump payload — the shape odbrun
// serves when both -listen and -spans are set.
func TestTraceEndpoint(t *testing.T) {
	// A plain flight source must not expose /traces.
	plain := httptest.NewServer(NewMux(telemetry.NewRecorder(telemetry.Config{})))
	defer plain.Close()
	resp, err := http.Get(plain.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/traces on a plain source: status %d, want 404", resp.StatusCode)
	}

	tr := txtrace.NewTracer(txtrace.Config{HeadEvery: 1})
	tr.SetMeta(txtrace.Meta{Label: "W=10,P=1", FreqHz: 2e9})
	ps := tr.NewProcState(0)
	ps.Begin(odb.NewOrder, 1000)
	ps.EndChunk(1000, 500, 0)
	tr.End(ps, 1500, true)
	ts := httptest.NewServer(NewMux(telemetry.NewRecorder(telemetry.Config{}),
		Endpoint{Path: "/traces", Write: tr.WriteTraces}))
	defer ts.Close()
	body, ct, err := httpGet(ts.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	if ct != contentTypeJSON {
		t.Errorf("/traces content type = %q", ct)
	}
	var d txtrace.Dump
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("/traces JSON: %v\n%s", err, body)
	}
	if d.Meta.Label != "W=10,P=1" || len(d.Traces) != 1 || d.Traces[0].Latency != 500 {
		t.Errorf("/traces payload = %s", body)
	}
	if idx, _, err := httpGet(ts.URL + "/"); err != nil || !strings.Contains(idx, "/traces") {
		t.Errorf("index should advertise /traces: %q (err %v)", idx, err)
	}
}

// TestServeClose checks the listener lifecycle: Serve binds before
// returning, and Close stops answering.
func TestServeClose(t *testing.T) {
	rec := telemetry.NewRecorder(telemetry.Config{})
	srv, err := Serve("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()
	if _, _, err := httpGet(base + "/progress"); err != nil {
		t.Fatalf("bound server not answering: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := httpGet(base + "/progress"); err == nil {
		t.Fatal("server still answering after Close")
	}
}

// killObserver counts finished points and triggers a callback on each
// executed success — the hook the kill/resume test uses to cancel the
// campaign at a chosen moment.
type killObserver struct {
	mu         sync.Mutex
	successes  int
	resumed    int
	onFinished func(successes int)
}

func (o *killObserver) PointStarted(campaign.Point)   {}
func (o *killObserver) TunerProbe(campaign.Probe)     {}
func (o *killObserver) CampaignDone(campaign.Summary) {}
func (o *killObserver) PointFinished(p campaign.PointResult) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if p.Err != nil {
		return
	}
	if p.Resumed {
		o.resumed++
		return
	}
	o.successes++
	if o.onFinished != nil {
		o.onFinished(o.successes)
	}
}

func (o *killObserver) counts() (successes, resumed int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.successes, o.resumed
}

// liveSpec is a small fixed-client campaign on the real simulator: six
// points, no tuner, serialized runs so the kill point is predictable.
func liveSpec(path string, flight *telemetry.CampaignRecorder) campaign.Spec {
	tun := system.DefaultTuning()
	tun.PrefillSampleTxns = 250
	return campaign.Spec{
		Machine:        system.XeonQuad(),
		Tuning:         tun,
		Seed:           7,
		WarmupTxns:     20,
		MeasureTxns:    40,
		Clients:        8,
		Parallelism:    1,
		Warehouses:     []int{2, 4, 6},
		Processors:     []int{1, 2},
		CheckpointPath: path,
		Instruments:    []campaign.Instrument{campaign.Flight(flight)},
	}
}

// TestCampaignLiveKillResume is the acceptance check for the live
// inspection endpoint, alongside the campaign package's kill/resume
// test: a campaign serving /metrics, /timeline and /progress is killed
// partway, then resumed behind a fresh server, and the endpoints must
// stay consistent — with each other (progress JSON vs. metrics gauges)
// and across the kill (phase A's completed points reappear as phase B's
// resumed count).
func TestCampaignLiveKillResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	const total = 6

	// The runs are tiny (~0.1 simulated seconds), so sample fast enough
	// that every completed run retains a timeline.
	flightCfg := telemetry.Config{SampleIntervalMS: 5}

	// Phase A: serve the campaign's flight recorder and kill the run
	// after two completed points.
	flightA := telemetry.NewCampaignRecorder(flightCfg)
	srvA, err := Serve("127.0.0.1:0", flightA)
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	baseA := "http://" + srvA.Addr()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	recA := &killObserver{}
	// Mid-run snapshot taken from inside the observer: the emitter's
	// mutex freezes campaign progress while the callback runs, so the
	// two GETs observe one consistent state.
	var midProgress, midMetrics string
	var midErr error
	recA.onFinished = func(n int) {
		if n == 1 {
			if midProgress, _, midErr = httpGet(baseA + "/progress"); midErr == nil {
				midMetrics, _, midErr = httpGet(baseA + "/metrics")
			}
		}
		if n == 2 {
			cancel()
		}
	}
	specA := liveSpec(path, flightA)
	specA.Observer = recA
	if _, err := campaign.Run(ctx, specA); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed campaign returned %v, want context.Canceled", err)
	}

	if midErr != nil {
		t.Fatalf("mid-run endpoints unreachable: %v", midErr)
	}
	var midP telemetry.CampaignProgress
	if err := json.Unmarshal([]byte(midProgress), &midP); err != nil {
		t.Fatalf("mid-run progress JSON: %v", err)
	}
	if midP.TotalPoints != total || midP.Done {
		t.Errorf("mid-run progress = %+v", midP)
	}
	if got := gaugeValue(t, midMetrics, "odb_campaign_points_done"); got != float64(midP.PointsDone) {
		t.Errorf("mid-run metrics points_done %v != progress %d", got, midP.PointsDone)
	}

	// After the kill the server still answers, and its counters agree
	// with the observer's event stream and the checkpoint on disk.
	doneA, _ := recA.counts()
	if doneA < 2 || doneA >= total {
		t.Fatalf("phase A completed %d points, want a strict subset of %d with ≥2", doneA, total)
	}
	killProgress, _, err := httpGet(baseA + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var killP telemetry.CampaignProgress
	if err := json.Unmarshal([]byte(killProgress), &killP); err != nil {
		t.Fatal(err)
	}
	if !killP.Done || killP.Err == "" {
		t.Errorf("post-kill progress should be done with an error: %+v", killP)
	}
	if killP.PointsDone-killP.PointsFailed != doneA {
		t.Errorf("post-kill progress %+v, observer saw %d successes", killP, doneA)
	}
	if len(killP.Active) != 0 {
		t.Errorf("post-kill active runs = %v, want none", killP.Active)
	}
	killMetrics, _, err := httpGet(baseA + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if got := gaugeValue(t, killMetrics, "odb_campaign_points_done"); got != float64(killP.PointsDone) {
		t.Errorf("post-kill metrics points_done %v != progress %d", got, killP.PointsDone)
	}
	cp, err := campaign.LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("checkpoint unreadable after the kill: %v", err)
	}
	if len(cp.Points) != doneA {
		t.Errorf("checkpoint holds %d points, observer saw %d successes", len(cp.Points), doneA)
	}
	srvA.Close()

	// Phase B: resume behind a fresh recorder and server.
	flightB := telemetry.NewCampaignRecorder(flightCfg)
	srvB, err := Serve("127.0.0.1:0", flightB)
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	baseB := "http://" + srvB.Addr()

	recB := &killObserver{}
	specB := liveSpec(path, flightB)
	specB.Resume = true
	specB.Observer = recB
	res, err := campaign.Run(context.Background(), specB)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != total {
		t.Fatalf("resumed campaign finished %d points, want %d", len(res.Points), total)
	}

	doneB, resumedB := recB.counts()
	if resumedB != doneA {
		t.Errorf("resume restored %d points, phase A completed %d", resumedB, doneA)
	}
	if doneB != total-doneA {
		t.Errorf("resume executed %d points, want the %d-point complement", doneB, total-doneA)
	}

	finalProgress, _, err := httpGet(baseB + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var finalP telemetry.CampaignProgress
	if err := json.Unmarshal([]byte(finalProgress), &finalP); err != nil {
		t.Fatal(err)
	}
	if !finalP.Done || finalP.Err != "" {
		t.Errorf("final progress not cleanly done: %+v", finalP)
	}
	if finalP.PointsDone != total || finalP.PointsFailed != 0 {
		t.Errorf("final progress = %+v, want all %d points done", finalP, total)
	}
	// The cross-kill consistency contract: phase A's completed points
	// are exactly phase B's resumed count, and the executed runs are the
	// complement.
	if finalP.PointsResumed != doneA {
		t.Errorf("final resumed = %d, phase A completed %d", finalP.PointsResumed, doneA)
	}
	if finalP.Runs != total-doneA {
		t.Errorf("final runs = %d, want %d re-executed points", finalP.Runs, total-doneA)
	}

	finalMetrics, _, err := httpGet(baseB + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for gauge, want := range map[string]float64{
		"odb_campaign_points_total":   total,
		"odb_campaign_points_done":    float64(finalP.PointsDone),
		"odb_campaign_points_resumed": float64(finalP.PointsResumed),
		"odb_campaign_done":           1,
	} {
		if got := gaugeValue(t, finalMetrics, gauge); got != want {
			t.Errorf("final %s = %v, want %v", gauge, got, want)
		}
	}
	if !strings.Contains(finalMetrics, `odb_txn_latency_us_count{txn_type=`) {
		t.Error("final metrics missing merged latency histograms")
	}

	finalTimeline, _, err := httpGet(baseB + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	var tlDoc struct {
		Points []struct {
			Point   string             `json:"point"`
			Live    bool               `json:"live"`
			Samples []telemetry.Sample `json:"samples"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(finalTimeline), &tlDoc); err != nil {
		t.Fatal(err)
	}
	if len(tlDoc.Points) != total-doneA {
		t.Errorf("final timeline has %d points, want the %d executed in phase B", len(tlDoc.Points), total-doneA)
	}
	for _, pt := range tlDoc.Points {
		if pt.Live || len(pt.Samples) == 0 {
			t.Errorf("timeline point %q: live=%v samples=%d", pt.Point, pt.Live, len(pt.Samples))
		}
	}

	// The run manifest sits next to the checkpoint and reloads.
	man, err := telemetry.LoadManifest(telemetry.ManifestPath(path))
	if err != nil {
		t.Fatalf("campaign manifest: %v", err)
	}
	if man.Tool != "odbscale-campaign" || man.Seed != specB.Seed {
		t.Errorf("manifest = %+v", man)
	}
}

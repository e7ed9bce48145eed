package live

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"odbscale/internal/campaign"
	"odbscale/internal/profile"
	"odbscale/internal/qstats"
	"odbscale/internal/telemetry"
	"odbscale/internal/txtrace"
)

// fullMux serves rec with every extra endpoint at once — the richest
// shape a CLI can serve.
func fullMux(rec *telemetry.Recorder, col *qstats.Collector) http.Handler {
	return NewMux(rec,
		Endpoint{Path: "/profile", Write: campaign.NewStore[*profile.Profile]("profile").WriteJSON},
		Endpoint{Path: "/traces", Write: txtrace.NewTracer(txtrace.Config{}).WriteTraces},
		Endpoint{Path: "/bottlenecks", Write: col.WriteBottlenecks})
}

// TestContentTypeHeaders pins the Content-Type of every endpoint: the
// OpenMetrics exposition type on /metrics and one consistent JSON type
// (charset included) on every JSON endpoint.
func TestContentTypeHeaders(t *testing.T) {
	rec := telemetry.NewRecorder(telemetry.Config{})
	rec.PushSample(telemetry.Sample{SimSeconds: 0.5, TPS: 10})
	ts := httptest.NewServer(fullMux(rec, qstats.NewCollector()))
	defer ts.Close()

	cases := map[string]string{
		"/metrics":     contentTypeOM,
		"/timeline":    contentTypeJSON,
		"/progress":    contentTypeJSON,
		"/profile":     contentTypeJSON,
		"/traces":      contentTypeJSON,
		"/healthz":     contentTypeJSON,
		"/bottlenecks": contentTypeJSON,
	}
	for path, want := range cases {
		_, ct, err := httpGet(ts.URL + path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if ct != want {
			t.Errorf("%s content type = %q, want %q", path, ct, want)
		}
	}
	if _, ct, err := httpGet(ts.URL + "/timeline?format=csv"); err != nil || ct != contentTypeCSV {
		t.Errorf("/timeline?format=csv content type = %q (err %v), want %q", ct, err, contentTypeCSV)
	}
}

// TestHealthzEndpoint checks the health payload carries run state and
// sample counts.
func TestHealthzEndpoint(t *testing.T) {
	rec := telemetry.NewRecorder(telemetry.Config{})
	rec.SetTarget(50)
	rec.MarkPhase(telemetry.PhaseMeasure, 0.25)
	rec.PushSample(telemetry.Sample{SimSeconds: 0.5})
	rec.PushSample(telemetry.Sample{SimSeconds: 0.6})
	rec.ObserveSpan("NewOrder", 900)

	ts := httptest.NewServer(NewMux(rec))
	defer ts.Close()
	body, _, err := httpGet(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status          string `json:"status"`
		Phase           string `json:"phase"`
		TargetTxns      uint64 `json:"target_txns"`
		TimelineSamples int    `json:"timeline_samples"`
		LatencySpans    uint64 `json:"latency_spans"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz JSON: %v\n%s", err, body)
	}
	if h.Status != "ok" || h.Phase != "measure" || h.TargetTxns != 50 || h.TimelineSamples != 2 || h.LatencySpans != 1 {
		t.Errorf("/healthz payload = %+v", h)
	}
}

// TestBottlenecksEndpoint checks /bottlenecks appears exactly when the
// source carries queueing reports, serving the pending marker before the
// first publication and the report after it.
func TestBottlenecksEndpoint(t *testing.T) {
	plain := httptest.NewServer(NewMux(telemetry.NewRecorder(telemetry.Config{})))
	defer plain.Close()
	resp, err := http.Get(plain.URL + "/bottlenecks")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/bottlenecks on a plain source: status %d, want 404", resp.StatusCode)
	}

	col := qstats.NewCollector()
	ts := httptest.NewServer(fullMux(telemetry.NewRecorder(telemetry.Config{}), col))
	defer ts.Close()

	body, _, err := httpGet(ts.URL + "/bottlenecks")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "pending") {
		t.Errorf("pre-publish /bottlenecks = %q", body)
	}

	in := &qstats.Input{ElapsedCycles: 1e9, CyclesPerMS: 1e6, Commits: 100}
	in.Counts[qstats.Disk] = qstats.Counts{Arrivals: 10, Completions: 10, BusyCycles: 5e6, WaitCycles: 2e6}
	in.Servers[qstats.Disk] = 4
	col.Publish(qstats.Build(in))
	body, _, err = httpGet(ts.URL + "/bottlenecks")
	if err != nil {
		t.Fatal(err)
	}
	var r qstats.Report
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatalf("/bottlenecks JSON: %v\n%s", err, body)
	}
	if r.Bottleneck != "disk" {
		t.Errorf("/bottlenecks bottleneck = %q, want disk", r.Bottleneck)
	}
	if idx, _, err := httpGet(ts.URL + "/"); err != nil || !strings.Contains(idx, "/bottlenecks") {
		t.Errorf("index should advertise /bottlenecks: %q (err %v)", idx, err)
	}
}

// TestTimelineCSV pins the CSV exposition: header shape and one row per
// retained sample, stations included.
func TestTimelineCSV(t *testing.T) {
	rec := telemetry.NewRecorder(telemetry.Config{})
	rec.PushSample(telemetry.Sample{
		SimSeconds: 0.5, Measuring: true, TPS: 100, CPI: 2.5,
		CPUUtil: []float64{0.75, 0.5},
		Stations: []telemetry.StationSample{
			{Name: "cpu", Util: 0.8, QueueLen: 1.5, WaitMS: 0.1, Xps: 2000},
			{Name: "disk", Util: 0.25, QueueLen: 0.5, WaitMS: 1.25, Xps: 400},
		},
	})
	ts := httptest.NewServer(NewMux(rec))
	defer ts.Close()
	body, _, err := httpGet(ts.URL + "/timeline?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 row:\n%s", len(lines), body)
	}
	wantHeader := "t,measuring,tps,cpi,user_ipx,os_ipx,l2_mpi,l3_mpi,buffer_hit,write_amp,read_amp,bus_util,run_queue,io_in_flight,space_amp,txns,cpu0_util,cpu1_util,cpu_util,cpu_queue_len,cpu_wait_ms,cpu_xps,disk_util,disk_queue_len,disk_wait_ms,disk_xps"
	if lines[0] != wantHeader {
		t.Errorf("CSV header = %q,\nwant %q", lines[0], wantHeader)
	}
	row := strings.Split(lines[1], ",")
	head := strings.Split(lines[0], ",")
	if len(row) != len(head) {
		t.Fatalf("CSV row has %d fields, header %d", len(row), len(head))
	}
	if row[0] != "0.5" || row[1] != "1" || row[2] != "100" {
		t.Errorf("CSV row = %v", row)
	}
	if row[len(row)-1] != "400" || row[len(row)-2] != "1.25" {
		t.Errorf("CSV station tail = %v", row[len(row)-4:])
	}

	// JSON stays the default.
	body, ct, err := httpGet(ts.URL + "/timeline")
	if err != nil || ct != contentTypeJSON || !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Errorf("/timeline default = %q (%s, err %v)", body, ct, err)
	}
}

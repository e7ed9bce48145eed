package campaign

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"odbscale/internal/clock"
	"odbscale/internal/system"
	"odbscale/internal/telemetry"
)

// flight is the flight-recorder instrument: every measurement run feeds
// a per-run recorder from cr, finished runs merge their latency
// histograms and retain their timelines in cr, and a flight observer
// keeps cr's campaign progress current for the live HTTP endpoints.
type flight struct {
	cr *telemetry.CampaignRecorder
}

// Flight returns the flight-recorder instrument over cr. Its checkpoint
// payload is the run's per-type latency histograms.
func Flight(cr *telemetry.CampaignRecorder) Instrument { return flight{cr: cr} }

func (f flight) Kind() string { return "hists" }

func (f flight) Begin(points int) Observer {
	f.cr.SetTotalPoints(points)
	return &flightObserver{cr: f.cr}
}

func (f flight) Start(point string, _ system.Config) Attached {
	return &flightRun{cr: f.cr, point: point, rec: f.cr.StartRun(point)}
}

func (f flight) Restore(point string, raw json.RawMessage) error {
	var enc map[string]string
	if err := json.Unmarshal(raw, &enc); err != nil {
		return fmt.Errorf("campaign: hists payload: %w", err)
	}
	hists, err := decodeHists(enc)
	if err != nil {
		return err
	}
	f.cr.RestoreRun(point, hists)
	return nil
}

// flightRun is the flight instrument attached to one run.
type flightRun struct {
	cr    *telemetry.CampaignRecorder
	point string
	rec   *telemetry.Recorder
}

func (r *flightRun) Option() system.Option { return system.WithRecorder(r.rec) }

func (r *flightRun) Finish(ok bool) (json.RawMessage, error) {
	r.cr.FinishRun(r.point, ok)
	if !ok {
		return nil, nil
	}
	enc := encodeHists(r.rec.Histograms())
	if enc == nil {
		return nil, nil
	}
	return json.Marshal(enc)
}

// encodeHists converts a run's histograms to the checkpoint wire form:
// base64 of the mergeable Histogram encoding, keyed by type.
func encodeHists(hists map[string]*telemetry.Histogram) map[string]string {
	if len(hists) == 0 {
		return nil
	}
	names := make([]string, 0, len(hists))
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string]string, len(hists))
	for _, name := range names {
		out[name] = base64.StdEncoding.EncodeToString(hists[name].Encode())
	}
	return out
}

// decodeHists reverses encodeHists.
func decodeHists(enc map[string]string) (map[string]*telemetry.Histogram, error) {
	out := make(map[string]*telemetry.Histogram, len(enc))
	for name, s := range enc {
		data, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return nil, fmt.Errorf("campaign: histogram %q: %w", name, err)
		}
		h, err := telemetry.DecodeHistogram(data)
		if err != nil {
			return nil, fmt.Errorf("campaign: histogram %q: %w", name, err)
		}
		out[name] = h
	}
	return out, nil
}

// flightObserver mirrors campaign events into a CampaignRecorder's live
// progress, feeding the /progress and /metrics endpoints. It is the glue
// between the two packages: telemetry cannot import campaign, so the
// event translation lives here.
type flightObserver struct {
	cr *telemetry.CampaignRecorder
}

func (f *flightObserver) PointStarted(p Point) {
	f.cr.Event(func(cp *telemetry.CampaignProgress) {
		cp.LastEvent = fmt.Sprintf("measuring W=%d P=%d c=%d", p.Warehouses, p.Processors, p.Clients)
	})
}

func (f *flightObserver) PointFinished(p PointResult) {
	f.cr.Event(func(cp *telemetry.CampaignProgress) {
		cp.PointsDone++
		switch {
		case p.Err != nil:
			cp.PointsFailed++
			cp.Runs++
			cp.LastEvent = fmt.Sprintf("W=%d P=%d failed: %v", p.Warehouses, p.Processors, p.Err)
		case p.Resumed:
			cp.PointsResumed++
			cp.LastEvent = fmt.Sprintf("W=%d P=%d resumed from checkpoint", p.Warehouses, p.Processors)
		default:
			cp.Runs++
			cp.LastEvent = fmt.Sprintf("W=%d P=%d c=%d util=%.2f tps=%.0f",
				p.Warehouses, p.Processors, p.Clients, p.Metrics.CPUUtil, p.Metrics.TPS)
		}
	})
}

func (f *flightObserver) TunerProbe(p Probe) {
	f.cr.Event(func(cp *telemetry.CampaignProgress) {
		cp.Probes++
		if p.Cached {
			cp.ProbesCached++
		} else {
			cp.Runs++
		}
		cp.LastEvent = fmt.Sprintf("tuning W=%d P=%d: c=%d util=%.2f", p.Warehouses, p.Processors, p.Clients, p.Util)
	})
}

func (f *flightObserver) CampaignDone(s Summary) {
	f.cr.Event(func(cp *telemetry.CampaignProgress) {
		cp.Done = true
		if s.Err != nil {
			cp.Err = s.Err.Error()
		}
		cp.LastEvent = "campaign done"
	})
}

// manifestConfig is the JSON-serializable projection of a Spec — every
// run-defining knob, none of the live plumbing (observers, recorders).
func (s *Spec) manifestConfig() any {
	return struct {
		Machine     any     `json:"machine"`
		Tuning      any     `json:"tuning"`
		Seed        int64   `json:"seed"`
		WarmupTxns  int     `json:"warmup_txns"`
		MeasureTxns int     `json:"measure_txns"`
		TuneTxns    int     `json:"tune_txns"`
		TargetUtil  float64 `json:"target_util"`
		MinClients  int     `json:"min_clients"`
		MaxClients  int     `json:"max_clients"`
		AutoTune    bool    `json:"auto_tune"`
		Clients     int     `json:"clients"`
		Parallelism int     `json:"parallelism"`
		Warehouses  []int   `json:"warehouses"`
		Processors  []int   `json:"processors"`
	}{
		Machine: s.Machine, Tuning: s.Tuning, Seed: s.Seed,
		WarmupTxns: s.WarmupTxns, MeasureTxns: s.MeasureTxns, TuneTxns: s.TuneTxns,
		TargetUtil: s.TargetUtil, MinClients: s.MinClients, MaxClients: s.MaxClients,
		AutoTune: s.AutoTune, Clients: s.Clients,
		Parallelism: s.Parallelism, Warehouses: s.Warehouses, Processors: s.Processors,
	}
}

// writeManifest emits the run manifest next to the checkpoint. Wall
// times flow through the runner's injected clock, keeping the package
// inside the determinism rule.
func (r *Runner) writeManifest(clk clock.Clock, started time.Time, notes string) error {
	spec := &r.Spec
	man := telemetry.NewManifest("odbscale-campaign", spec.Seed)
	man.CreatedAt = started.UTC().Format(time.RFC3339)
	man.Checkpoint = spec.CheckpointPath
	man.WallSeconds = clk.Since(started).Seconds()
	man.Notes = notes
	if err := man.SetConfig(spec.manifestConfig()); err != nil {
		return err
	}
	return man.Save(telemetry.ManifestPath(spec.CheckpointPath))
}

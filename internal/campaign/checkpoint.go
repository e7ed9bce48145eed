package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"odbscale/internal/clock"
	"odbscale/internal/engine"
	"odbscale/internal/system"
	"odbscale/internal/telemetry"
)

// checkpointVersion guards the on-disk format.
const checkpointVersion = 1

// ErrCheckpointMismatch reports a resume against a checkpoint written
// by a campaign with different run-defining parameters.
var ErrCheckpointMismatch = errors.New("campaign: checkpoint does not match the spec")

// Fingerprint captures the parameters that define a run's result. Two
// campaigns with equal fingerprints measure identical configurations,
// so their checkpoints are interchangeable; the warehouse and processor
// axes are deliberately excluded so a resumed campaign may add points.
type Fingerprint struct {
	Machine     string  `json:"machine"`
	Engine      string  `json:"engine,omitempty"`
	Seed        int64   `json:"seed"`
	WarmupTxns  int     `json:"warmup_txns"`
	MeasureTxns int     `json:"measure_txns"`
	TuneTxns    int     `json:"tune_txns"`
	TargetUtil  float64 `json:"target_util"`
	MinClients  int     `json:"min_clients"`
	MaxClients  int     `json:"max_clients"`
	AutoTune    bool    `json:"auto_tune"`
	Clients     int     `json:"clients,omitempty"`
}

// CheckpointPoint is one completed measurement point.
type CheckpointPoint struct {
	W       int            `json:"w"`
	P       int            `json:"p"`
	C       int            `json:"c"`
	Metrics system.Metrics `json:"metrics"`
	// Flight is the point's persisted observability payload: one raw
	// JSON document per instrument kind ("profile", "spans", "qstats",
	// "timeline").
	// It is the one store of payloads: Result hands it out, so a
	// resumed campaign keeps it instead of losing it. Old checkpoints
	// without it still load, and a kind no instrument of the resuming
	// campaign claims (such as the retired "hists") is carried along
	// unread.
	Flight map[string]json.RawMessage `json:"flight,omitempty"`
}

// CheckpointProbe is one completed tuner probe.
type CheckpointProbe struct {
	W    int     `json:"w"`
	P    int     `json:"p"`
	C    int     `json:"c"`
	Util float64 `json:"util"`
}

// Checkpoint is the serialized state of a partially completed campaign:
// every finished measurement point and every tuner probe. A campaign
// resumed from it re-executes only what is missing.
type Checkpoint struct {
	Version int               `json:"version"`
	Spec    Fingerprint       `json:"spec"`
	Points  []CheckpointPoint `json:"points"`
	Probes  []CheckpointProbe `json:"probes"`
}

// LoadCheckpoint reads a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("campaign: corrupt checkpoint %s: %w", path, err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("campaign: checkpoint %s has version %d, want %d",
			path, cp.Version, checkpointVersion)
	}
	return &cp, nil
}

// Save writes the checkpoint atomically (temp file + rename).
func (cp *Checkpoint) Save(path string) error {
	data, err := json.MarshalIndent(cp, "", " ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".campaign-ck-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

type probeKey struct{ w, p, c int }

// ckStore is the runner's shared memo: completed points and probes,
// persisted to the checkpoint path (when one is configured) after every
// addition.
type ckStore struct {
	mu     sync.Mutex
	path   string // "" keeps the store in memory only
	cp     Checkpoint
	points map[PointKey]CheckpointPoint
	probes map[probeKey]float64
}

// newCKStore builds the store for a campaign, loading the checkpoint
// file when the spec asks to resume.
func newCKStore(spec *Spec) (*ckStore, error) {
	s := &ckStore{
		path:   spec.CheckpointPath,
		cp:     Checkpoint{Version: checkpointVersion, Spec: spec.fingerprint()},
		points: make(map[PointKey]CheckpointPoint),
		probes: make(map[probeKey]float64),
	}
	if !spec.Resume {
		return s, nil
	}
	if s.path == "" {
		return nil, fmt.Errorf("campaign: Resume requires a CheckpointPath")
	}
	cp, err := LoadCheckpoint(s.path)
	if errors.Is(err, os.ErrNotExist) {
		return s, nil // nothing to resume from: fresh campaign
	}
	if err != nil {
		return nil, err
	}
	if cp.Spec != s.cp.Spec {
		return nil, fmt.Errorf("%w: checkpoint %+v, spec %+v",
			ErrCheckpointMismatch, cp.Spec, s.cp.Spec)
	}
	s.cp = *cp
	for _, pt := range cp.Points {
		s.points[PointKey{W: pt.W, P: pt.P}] = pt
	}
	for _, pr := range cp.Probes {
		s.probes[probeKey{pr.W, pr.P, pr.C}] = pr.Util
	}
	return s, nil
}

func (s *ckStore) point(k PointKey) (CheckpointPoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pt, ok := s.points[k]
	return pt, ok
}

func (s *ckStore) probe(w, p, c int) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.probes[probeKey{w, p, c}]
	return u, ok
}

func (s *ckStore) addPoint(pt CheckpointPoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.points[PointKey{W: pt.W, P: pt.P}] = pt
	s.cp.Points = append(s.cp.Points, pt)
	return s.persistLocked()
}

func (s *ckStore) addProbe(w, p, c int, util float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.probes[probeKey{w, p, c}] = util
	s.cp.Probes = append(s.cp.Probes, CheckpointProbe{W: w, P: p, C: c, Util: util})
	return s.persistLocked()
}

func (s *ckStore) persistLocked() error {
	if s.path == "" {
		return nil
	}
	return s.cp.Save(s.path)
}

// Manifest builds the run manifest of the spec for tool: its seed, its
// storage engine (empty means engine.DefaultName) and, as its config,
// every run-defining knob, none of the plumbing (observers,
// instruments). The caller stamps the wall-clock fields.
func (s *Spec) Manifest(tool string) (*telemetry.Manifest, error) {
	man := telemetry.NewManifest(tool, s.Seed)
	man.Engine = s.Engine
	if man.Engine == "" {
		man.Engine = engine.DefaultName
	}
	err := man.SetConfig(struct {
		Machine     any     `json:"machine"`
		Engine      string  `json:"engine"`
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
		Machine: s.Machine, Engine: man.Engine, Tuning: s.Tuning, Seed: s.Seed,
		WarmupTxns: s.WarmupTxns, MeasureTxns: s.MeasureTxns, TuneTxns: s.TuneTxns,
		TargetUtil: s.TargetUtil, MinClients: s.MinClients, MaxClients: s.MaxClients,
		AutoTune: s.AutoTune, Clients: s.Clients,
		Parallelism: s.Parallelism, Warehouses: s.Warehouses, Processors: s.Processors,
	})
	return man, err
}

// writeManifest emits the run manifest next to the checkpoint. Wall
// times flow through the runner's injected clock, keeping the package
// inside the determinism rule.
func (r *Runner) writeManifest(clk clock.Clock, started time.Time, notes string) error {
	spec := &r.Spec
	man, err := spec.Manifest("odbscale-campaign")
	if err != nil {
		return err
	}
	man.CreatedAt = started.UTC().Format(time.RFC3339)
	man.Checkpoint = spec.CheckpointPath
	man.WallSeconds = clk.Since(started).Seconds()
	man.Notes = notes
	return man.Save(telemetry.ManifestPath(spec.CheckpointPath))
}

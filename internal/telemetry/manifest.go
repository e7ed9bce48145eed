package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// ManifestVersion guards the manifest schema.
const ManifestVersion = 1

// Provenance records how the emitting binary was built and which
// invariants its tree is expected to satisfy. Wall-clock fields are
// stamped by callers: this package may not read the clock.
type Provenance struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Module    string `json:"module"`
	// LintRules lists the odblint analyzers the tree is held to; CI
	// fails on any finding, so a released manifest implies a clean run.
	LintRules []string `json:"lint_rules,omitempty"`
	// Tier1 is the verification command gating the tree.
	Tier1 string `json:"tier1"`
}

// Manifest is the machine-readable record written next to every
// checkpoint and emitted by odbrun -json: the full configuration and
// seeds that produced a result and build provenance — enough to
// reproduce or audit the run without the binary.
type Manifest struct {
	Version int    `json:"version"`
	Tool    string `json:"tool"`
	// CreatedAt is an RFC3339 wall timestamp stamped by the caller
	// (cmd/ binaries, or the campaign runner via its injected clock).
	CreatedAt string `json:"created_at,omitempty"`

	Seed int64 `json:"seed"`
	// Engine names the storage engine the run executed on (internal/
	// engine registry name); empty in manifests predating the field.
	Engine      string          `json:"engine,omitempty"`
	Config      json.RawMessage `json:"config,omitempty"` // full system/campaign configuration
	Provenance  Provenance      `json:"provenance"`
	WallSeconds float64         `json:"wall_seconds,omitempty"` // total wall time, caller-stamped
	Checkpoint  string          `json:"checkpoint,omitempty"`   // sibling checkpoint path
	Notes       string          `json:"notes,omitempty"`
}

// NewManifest builds a manifest skeleton with build provenance filled
// from the running binary.
func NewManifest(tool string, seed int64) *Manifest {
	return &Manifest{
		Version: ManifestVersion,
		Tool:    tool,
		Seed:    seed,
		Provenance: Provenance{
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			Module:    "odbscale",
			// Mirrors lint.All(); a telemetry test pins the two in sync
			// without linking go/types into every binary.
			LintRules: []string{
				"determinism", "maporder", "sentinelerr", "floateq", "ctxloop", "hotwaiver",
				"taintdet", "hotalloc",
			},
			Tier1: "go build ./... && go test ./... && odblint ./...",
		},
	}
}

// SetConfig marshals the full run configuration into the manifest.
func (m *Manifest) SetConfig(cfg any) error {
	data, err := json.Marshal(cfg)
	if err != nil {
		return fmt.Errorf("telemetry: marshaling manifest config: %w", err)
	}
	m.Config = data
	return nil
}

// Save writes the manifest atomically (temp file + rename), matching
// the checkpoint writer's crash discipline.
func (m *Manifest) Save(path string) error {
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), ".manifest-*")
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

// ManifestPath returns the manifest path written next to a checkpoint.
func ManifestPath(checkpointPath string) string {
	return checkpointPath + ".manifest.json"
}

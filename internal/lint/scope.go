package lint

// A role is a set of rule families a simulator package is subject to.
type role uint8

const (
	// deterministic packages must be bit-reproducible from an explicit
	// seed: every CPI(W) / MPI(W) regression and every campaign
	// checkpoint fingerprint assumes a rerun of the same (W, P, seed)
	// reproduces the same metrics. Determinism and TaintDet run there.
	deterministic role = 1 << iota

	// hotPath packages sit on the simulator's per-chunk hot path and
	// carry its speed, which simbench gates against the base commit, so
	// a lint waiver there almost always protects a performance
	// invariant. HotWaiver requires its reason to say which one.
	hotPath

	allocBit // the bit allocFree adds to hotPath; never used alone

	// allocFree packages keep their per-event code allocation-free in
	// steady state; HotAlloc checks it statically, and
	// TestMeasuredRunAllocations (internal/system) measures what a run
	// allocates. It includes hotPath, so every package HotAlloc checks
	// also has its waivers audited.
	allocFree = allocBit | hotPath
)

// has reports whether r carries every bit of want.
func (r role) has(want role) bool { return r&want == want }

// packageScope is the one table of scoped packages: each simulator
// package is listed once, with the roles that apply to it. Packages
// not listed have no role.
var packageScope = map[string]role{
	"odbscale/internal/sim":          deterministic | allocFree,
	"odbscale/internal/xrand":        deterministic | allocFree, // the seeded entropy source itself
	"odbscale/internal/cache":        deterministic | allocFree,
	"odbscale/internal/buffercache":  deterministic | allocFree, // entry arena + free-list pooling
	"odbscale/internal/odb":          deterministic | allocFree,
	"odbscale/internal/engine":       deterministic | allocFree, // planner seam rides the per-op path
	"odbscale/internal/engine/btree": deterministic | allocFree,
	"odbscale/internal/engine/lsm":   deterministic | allocFree, // read-path draws and MemWrite run per op
	"odbscale/internal/txtrace":      deterministic | allocFree, // span sampling is seed-reproducible; per-commit path pools records
	"odbscale/internal/qstats":       deterministic | allocFree, // station accumulation rides every event
	"odbscale/internal/storage":      deterministic | allocFree, // every disk read, write and log write
	"odbscale/internal/osker":        deterministic | hotPath,
	"odbscale/internal/workload":     deterministic | hotPath,
	"odbscale/internal/system":       deterministic | hotPath,
	"odbscale/internal/campaign":     deterministic,
	"odbscale/internal/telemetry":    deterministic,
	"odbscale/internal/profile":      deterministic,
	"odbscale/internal/bus":          deterministic,
}

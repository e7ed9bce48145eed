package lint

import "strings"

// hotPathScope is the set of packages on the simulator's per-chunk hot
// path: the event engine, the RNG fast paths, the cache hierarchy and
// buffer cache pools, the transaction generator, the scheduler and the
// machine layer. These packages carry the simulator's speed, which
// simbench gates against the base commit, so a lint waiver here is
// almost always protecting a performance invariant — and its reason
// must say which one.
var hotPathScope = map[string]bool{
	"odbscale/internal/sim":          true,
	"odbscale/internal/xrand":        true,
	"odbscale/internal/cache":        true,
	"odbscale/internal/buffercache":  true,
	"odbscale/internal/odb":          true,
	"odbscale/internal/engine":       true,
	"odbscale/internal/engine/btree": true,
	"odbscale/internal/engine/lsm":   true,
	"odbscale/internal/osker":        true,
	"odbscale/internal/workload":     true,
	"odbscale/internal/system":       true,
	"odbscale/internal/txtrace":      true,
	"odbscale/internal/qstats":       true, // station accumulation rides every event
}

// perfReasonMarkers are the substrings (matched case-insensitively) that
// qualify a waiver reason as perf-specific: it names the allocation,
// pooling, cycle or fast-path concern the waived construct serves.
var perfReasonMarkers = []string{
	"alloc", "pool", "scratch", "reuse", "recycl", "arena", "free list",
	"free-list", "hot path", "hot-path", "fast path", "fast-path",
	"perf", "cycle", "inline", "inlining", "zero-copy", "bench",
}

// HotWaiver requires //lint:ignore waivers in hot-path packages to
// carry perf-specific reasons. The suppression machinery already makes
// reasons mandatory; this rule makes them meaningful where simbench's
// trajectory is at stake, so a waiver can be audited against the
// optimization it protects.
var HotWaiver = &Analyzer{
	Name: "hotwaiver",
	Doc: "require //lint:ignore reasons in hot-path packages to name the " +
		"perf concern (allocation, pooling, cycles) the waiver protects",
	Run: runHotWaiver,
}

// perfSpecific reports whether a waiver reason names a performance
// concern.
func perfSpecific(reason string) bool {
	r := strings.ToLower(reason)
	for _, m := range perfReasonMarkers {
		if strings.Contains(r, m) {
			return true
		}
	}
	return false
}

func runHotWaiver(pass *Pass) {
	if !hotPathScope[pass.Path] {
		return
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				const prefix = "//lint:ignore"
				if !strings.HasPrefix(c.Text, prefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, prefix))
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					continue // malformed; the driver reports it as [lint]
				}
				reason := strings.Join(fields[1:], " ")
				if !perfSpecific(reason) {
					pass.Reportf(c.Pos(),
						"hot-path waiver reason %q names no perf concern; say which allocation, pool, or cycle cost it protects", reason)
				}
			}
		}
	}
}

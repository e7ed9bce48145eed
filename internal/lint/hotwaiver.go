package lint

import "strings"

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
	if !packageScope[pass.Path].has(hotPath) {
		return
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rules, reason, ok := parseDirective(c.Text)
				if !ok || rules == nil {
					continue // not a directive; the driver reports a malformed one as [lint]
				}
				if !perfSpecific(reason) {
					pass.Reportf(c.Pos(),
						"hot-path waiver reason %q names no perf concern; say which allocation, pool, or cycle cost it protects", reason)
				}
			}
		}
	}
}

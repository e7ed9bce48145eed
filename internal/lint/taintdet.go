package lint

import (
	"go/ast"
	"strings"
)

// TaintDet is the interprocedural extension of the determinism rule.
// Determinism flags a direct time.Now (or global math/rand, pid,
// crypto/rand) use inside a simulator package — but a one-level
// wrapper defeats it: sim code calling util.Stamp(), where util (not
// in the determinism scope) calls time.Now, went unflagged. TaintDet
// closes that hole: any call from simulator non-test code whose callee
// transitively reaches a banned entropy source over static call edges
// is a finding, with the full call path in the message. Functions that
// return a slice assembled in map-iteration order without sorting are
// sources too — order entropy propagates exactly like clock entropy.
//
// The analysis is conservative where Go is dynamic: calls through
// interfaces or stored function values produce no static edge and are
// not traced. Passing entropy *references* (the sanctioned
// clock.Wall() pattern, which returns time.Now uninvoked for later
// injection) is deliberately not a taint edge — inside the determinism
// scope the direct rule already forbids the reference itself.
var TaintDet = &Analyzer{
	Name: "taintdet",
	Doc: "flag calls from simulator packages whose callee transitively " +
		"reaches wall-clock, global-rand, or map-order entropy",
	Run: runTaintDet,
}

func runTaintDet(pass *Pass) {
	if pass.Prog == nil || !packageScope[pass.Path].has(deterministic) {
		return
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(pass.Info, call)
			if fn == nil {
				return true
			}
			if _, direct := taintSourceOf(fn); direct {
				return true // the determinism rule owns direct call sites
			}
			cause := pass.Prog.Taint(funcKey(fn))
			if cause == nil {
				return true
			}
			pass.Reportf(call.Pos(), "call to %s eventually draws %s (path: %s)",
				shortName(funcKey(fn)), cause.source, strings.Join(cause.path, " -> "))
			return true
		})
	}
}

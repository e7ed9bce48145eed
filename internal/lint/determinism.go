package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism forbids ambient entropy — wall clocks, the global
// math/rand source, process ids — inside the simulator packages. All
// randomness must flow through internal/xrand (seeded, splittable) and
// wall-clock observability timing through internal/clock (injectable).
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid time.Now/time.Since, global math/rand, and process-id entropy " +
		"in simulator packages; use internal/xrand and internal/clock",
	Run: runDeterminism,
}

// bannedEntropy classifies a package-level function as an entropy
// source the simulator packages must not touch.
func bannedEntropy(fn *types.Func) (string, bool) {
	if fn.Pkg() == nil {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", false // methods (e.g. (*rand.Rand).Intn) are seeded and fine
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			return "wall-clock entropy (time." + name + "); inject a clock via internal/clock", true
		}
	case "os":
		switch name {
		case "Getpid", "Getppid":
			return "process-id entropy (os." + name + ")", true
		}
	case "math/rand", "math/rand/v2":
		// Constructors taking an explicit source stay allowed; the
		// package-level convenience functions draw from the global,
		// unseeded source.
		if !strings.HasPrefix(name, "New") {
			return "global math/rand entropy (rand." + name + "); route randomness through internal/xrand", true
		}
	}
	return "", false
}

func runDeterminism(pass *Pass) {
	if !packageScope[pass.Path].has(deterministic) {
		return
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if msg, bad := bannedEntropy(fn); bad {
				pass.Reportf(id.Pos(), "%s", msg)
			}
			return true
		})
	}
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer under taintdet and hotalloc:
// a module-wide call graph built from the import-facing type-check of
// every package in the module. Nodes are keyed by the stable
// types.Func full name ("odbscale/internal/sim.New",
// "(*odbscale/internal/cache.Domain).Access"), so a function resolved
// through an import and the same function type-checked as part of its
// own analysis unit land on the same node even though they are
// distinct types.Func objects.
//
// The graph carries two edge kinds:
//
//   - call edges: static calls the type-checker can resolve. Dynamic
//     dispatch (interface methods, calls through function-typed
//     variables) produces no edge; the analyzers are deliberately
//     conservative rather than complete there.
//   - ref edges: a function value referenced without being called —
//     registering a callback, storing a method into a struct field,
//     passing a handler to a constructor. Reachability over call+ref
//     edges approximates "running F may eventually run G" even when
//     the actual invocation happens through a stored function value.
//
// Each node also records two facts the analyzers consume: whether the
// function directly draws banned entropy (a taint source) and whether
// it returns a slice built by unsorted map iteration (order entropy).

// A graphEdge points at a callee or referenced function.
type graphEdge struct {
	callee string    // node key
	name   string    // display name
	pos    token.Pos // call or reference site
}

// A graphNode is one module function with a body.
type graphNode struct {
	key     string
	name    string // short display name
	pkgPath string

	calls []graphEdge
	refs  []graphEdge

	// entropy names the banned entropy source this function calls
	// directly ("" when clean); mapOrdered marks a function returning
	// a slice assembled in map-iteration order without a sort.
	entropy    string
	mapOrdered bool
}

// taintCause explains why a function is determinism-tainted: the
// ultimate source and the call path from the function down to it.
type taintCause struct {
	source string
	path   []string // display names, caller-to-source order
}

// Program is the module-wide analysis state shared by the
// interprocedural analyzers.
type Program struct {
	mod   *Module
	nodes map[string]*graphNode
	taint map[string]*taintCause // memo; present-and-nil means clean
	hot   map[string]bool        // per-event reachability, built lazily
}

// funcKey returns the stable cross-universe key for fn.
func funcKey(fn *types.Func) string {
	return fn.Origin().FullName()
}

// shortName compresses a node key for finding messages: package paths
// are cut down to the last element, so
// "(*odbscale/internal/cache.Domain).Access" reads "(*cache.Domain).Access".
func shortName(key string) string {
	var b strings.Builder
	start := -1 // start of the current path-ish token
	flushUpto := func(end int) {
		if start < 0 {
			return
		}
		tok := key[start:end]
		if i := strings.LastIndexByte(tok, '/'); i >= 0 {
			tok = tok[i+1:]
		}
		b.WriteString(tok)
		start = -1
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c == '/' || c == '.' || c == '_' || c == '-' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			if start < 0 {
				start = i
			}
			continue
		}
		flushUpto(i)
		b.WriteByte(c)
	}
	flushUpto(len(key))
	return b.String()
}

// taintSourceOf classifies fn as a determinism-taint source: the
// banned entropy set of the determinism rule plus hardware entropy
// from crypto/rand. The returned label names the source in findings.
func taintSourceOf(fn *types.Func) (string, bool) {
	if msg, bad := bannedEntropy(fn); bad {
		// Reuse the determinism classification but label compactly:
		// "time.Now (wall-clock entropy)".
		kind := msg
		if i := strings.IndexByte(msg, '('); i > 0 {
			kind = strings.TrimSpace(msg[:i])
		}
		return fn.Pkg().Name() + "." + fn.Name() + " (" + kind + ")", true
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "crypto/rand" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			return "crypto/rand." + fn.Name() + " (hardware entropy)", true
		}
	}
	return "", false
}

// buildProgram type-checks every package of the module (import-facing,
// non-test files) and assembles the call graph. Packages are processed
// in sorted import-path order and bodies in source order, so node and
// edge order — and therefore every reported taint path — is
// deterministic.
func buildProgram(m *Module) (*Program, error) {
	p := &Program{mod: m, nodes: make(map[string]*graphNode), taint: make(map[string]*taintCause)}
	paths := make([]string, 0, len(m.pkgs))
	for path := range m.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := m.importPkg(path); err != nil {
			return nil, err
		}
	}
	for _, path := range paths {
		info := m.facingInfo[path]
		src := m.srcs[path]
		if info == nil || src == nil {
			continue
		}
		for _, f := range src.nonTest {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := funcKey(obj)
				n := &graphNode{key: key, name: shortName(key), pkgPath: path}
				p.scanBody(n, info, fd)
				p.nodes[key] = n
			}
		}
	}
	return p, nil
}

// scanBody records fd's call edges, ref edges and taint-source facts
// on n. Function literals nested in fd attribute their calls and
// references to fd's node: a callback defined inline still taints (and
// is reached through) the function that created it.
func (p *Program) scanBody(n *graphNode, info *types.Info, fd *ast.FuncDecl) {
	// Expressions in call position: excluded from ref-edge scanning.
	called := make(map[ast.Expr]bool)
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := ast.Unparen(call.Fun)
		called[fun] = true
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			called[sel.Sel] = true
		}
		if fn := calleeOf(info, call); fn != nil {
			key := funcKey(fn)
			n.calls = append(n.calls, graphEdge{callee: key, name: shortName(key), pos: call.Pos()})
			if src, bad := taintSourceOf(fn); bad && n.entropy == "" {
				n.entropy = src
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		var fn *types.Func
		var pos token.Pos
		switch e := node.(type) {
		case *ast.Ident:
			if called[e] {
				return true
			}
			fn, _ = info.Uses[e].(*types.Func)
			pos = e.Pos()
		case *ast.SelectorExpr:
			if called[e] || called[e.Sel] {
				return true
			}
			fn, _ = info.Uses[e.Sel].(*types.Func)
			pos = e.Pos()
		default:
			return true
		}
		if fn == nil {
			return true
		}
		key := funcKey(fn)
		n.refs = append(n.refs, graphEdge{callee: key, name: shortName(key), pos: pos})
		return true
	})
	if pos := mapOrderedResult(info, fd); pos.IsValid() {
		n.mapOrdered = true
	}
}

// Taint reports whether the function behind key transitively draws
// banned entropy through static call edges, and if so how. The result
// is memoized; nil means clean (or unknown — a function the graph has
// no body for).
func (p *Program) Taint(key string) *taintCause {
	return p.taintOf(key, make(map[string]bool))
}

func (p *Program) taintOf(key string, visiting map[string]bool) *taintCause {
	if c, ok := p.taint[key]; ok {
		return c
	}
	n := p.nodes[key]
	if n == nil || visiting[key] {
		return nil
	}
	visiting[key] = true
	defer delete(visiting, key)
	var cause *taintCause
	switch {
	case n.entropy != "":
		cause = &taintCause{source: n.entropy, path: []string{n.name}}
	case n.mapOrdered:
		cause = &taintCause{
			source: "a map-iteration-ordered result",
			path:   []string{n.name},
		}
	default:
		for _, e := range n.calls {
			if sub := p.taintOf(e.callee, visiting); sub != nil {
				cause = &taintCause{
					source: sub.source,
					path:   append([]string{n.name}, sub.path...),
				}
				break
			}
		}
	}
	if len(visiting) == 1 {
		// Memoize only at the recursion root: deeper results computed
		// while an ancestor is in `visiting` may be incomplete for
		// cyclic call chains.
		p.taint[key] = cause
	}
	return cause
}

// hotRootKey is the per-event analysis root: everything the unified
// Run entry point can reach, minus construction-time code, is the
// steady-state path the allocation discipline protects.
const hotRootKey = "odbscale/internal/system.Run"

// coldFunc classifies a function name as construction/teardown-time:
// allocation there is expected (arenas and pools are carved at New)
// and reachability is not propagated through its body.
func coldFunc(name string) bool {
	switch {
	case strings.HasPrefix(name, "New"),
		strings.HasPrefix(name, "Marshal"),
		strings.HasPrefix(name, "Unmarshal"):
		return true
	}
	switch name {
	case "init", "Close", "String", "GoString", "Error", "Format", "validate", "Validate":
		return true
	}
	return false
}

// Hot reports whether key is on the per-event path: reachable from
// system.Run over call+ref edges without passing through a cold
// (construction-time) function.
func (p *Program) Hot(key string) bool {
	if p.hot == nil {
		p.hot = make(map[string]bool)
		p.markHot(hotRootKey)
	}
	return p.hot[key]
}

func (p *Program) markHot(key string) {
	if p.hot[key] {
		return
	}
	n := p.nodes[key]
	if n == nil {
		return
	}
	p.hot[key] = true
	for _, e := range n.calls {
		p.expandHot(e.callee)
	}
	for _, e := range n.refs {
		p.expandHot(e.callee)
	}
}

// expandHot descends into a reachable function unless it is cold:
// cold functions stay out of the hot set and their callees are only
// reached if some warm path also leads there.
func (p *Program) expandHot(key string) {
	if n := p.nodes[key]; n != nil && coldFunc(baseFuncName(key)) {
		return
	}
	p.markHot(key)
}

// baseFuncName extracts the bare function or method name from a node
// key: "(*odbscale/internal/cache.Domain).Access" -> "Access".
func baseFuncName(key string) string {
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		return key[i+1:]
	}
	return key
}

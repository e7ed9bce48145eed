package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc flags allocation patterns inside functions on the per-event
// path: the call-graph closure of system.Run (over call and
// callback-reference edges) minus construction-time code — New*, Close
// and friends legitimately carve arenas and pools. Four allocation
// classes are findings:
//
//   - a composite literal taken by address that escapes (returned,
//     stored to a field or package variable, passed to a call, sent on
//     a channel) — a guaranteed heap allocation per event;
//   - append growth on a slice allocated fresh in the same function —
//     the pooled idiom reuses a field or caller-provided buffer;
//   - a closure that captures variables, created inside a loop — one
//     heap allocation per iteration;
//   - a struct, array or float value passed where an interface is
//     expected — boxing allocates (pointers and small integers do
//     not, and stay exempt).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flag escaping composite literals, fresh-slice append growth, " +
		"per-iteration closures, and interface boxing on the per-event path",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	if pass.Prog == nil || !packageScope[pass.Path].has(allocFree) {
		return
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok || !pass.Prog.Hot(funcKey(obj)) {
				continue
			}
			checkEscapingComposites(pass, fd)
			checkFreshAppends(pass, fd)
			checkLoopClosures(pass, fd)
			checkInterfaceBoxing(pass, fd)
		}
	}
}

// addrOfComposite returns the composite literal when expr is
// (&T{...}), possibly parenthesized.
func addrOfComposite(expr ast.Expr) *ast.CompositeLit {
	un, ok := ast.Unparen(expr).(*ast.UnaryExpr)
	if !ok || un.Op.String() != "&" {
		return nil
	}
	lit, _ := ast.Unparen(un.X).(*ast.CompositeLit)
	return lit
}

// checkEscapingComposites flags &T{...} in escaping positions, plus
// the two-step form where the pointer lands in a local that later
// escapes.
func checkEscapingComposites(pass *Pass, fd *ast.FuncDecl) {
	body := fd.Body
	// locals holding an address-of-composite, for the two-step check.
	ptrLocals := make(map[types.Object]*ast.CompositeLit)
	report := func(lit *ast.CompositeLit, how string) {
		pass.Reportf(lit.Pos(), "composite literal escapes to the heap (%s); "+
			"allocate it once at construction time or reuse a pooled slot", how)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				if lit := addrOfComposite(r); lit != nil {
					report(lit, "returned")
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				lit := addrOfComposite(rhs)
				if lit == nil {
					continue
				}
				if i >= len(st.Lhs) {
					break
				}
				base := chainBase(st.Lhs[i])
				if id, ok := base.(*ast.Ident); ok && ast.Unparen(st.Lhs[i]) == base {
					obj := pass.Info.ObjectOf(id)
					if declaredWithin(obj, body.Pos(), body.End()) {
						// p := &T{} — stack-allocatable until p escapes.
						ptrLocals[obj] = lit
						continue
					}
				}
				report(lit, "stored outside the function's frame")
			}
		case *ast.CallExpr:
			for _, arg := range st.Args {
				if lit := addrOfComposite(arg); lit != nil {
					report(lit, "passed to a call")
				}
			}
		case *ast.SendStmt:
			if lit := addrOfComposite(st.Value); lit != nil {
				report(lit, "sent on a channel")
			}
		}
		return true
	})
	if len(ptrLocals) == 0 {
		return
	}
	// Second step: does any pointer-holding local escape?
	ast.Inspect(body, func(n ast.Node) bool {
		escapes := func(e ast.Expr, how string) {
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				obj := pass.Info.ObjectOf(id)
				if lit := ptrLocals[obj]; lit != nil {
					// Report at the literal, where the allocation (and any
					// waiver) belongs, naming the escape that forces it.
					pass.Reportf(lit.Pos(), "local %s holds this composite literal's address and %s; "+
						"the literal is heap-allocated per call", id.Name, how)
					delete(ptrLocals, obj)
				}
			}
		}
		switch st := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				escapes(r, "is returned")
			}
		case *ast.CallExpr:
			for _, arg := range st.Args {
				escapes(arg, "is passed to a call")
			}
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				if i >= len(st.Lhs) {
					break
				}
				base := chainBase(st.Lhs[i])
				if id, ok := base.(*ast.Ident); ok && ast.Unparen(st.Lhs[i]) == base {
					if declaredWithin(pass.Info.ObjectOf(id), body.Pos(), body.End()) {
						continue // local-to-local copy
					}
				}
				escapes(rhs, "is stored outside the function's frame")
			}
		case *ast.SendStmt:
			escapes(st.Value, "is sent on a channel")
		}
		return true
	})
}

// freshSliceInit reports whether an initializer expression denotes a
// freshly allocated slice: absent (zero value), a slice literal, or
// make(). Reslicing a field or parameter (buf[:0], the pooled idiom)
// is not fresh.
func freshSliceInit(info *types.Info, init ast.Expr) bool {
	if init == nil {
		return true
	}
	switch e := ast.Unparen(init).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
				return true
			}
		}
	}
	return false
}

// checkFreshAppends flags x = append(x, ...) where x is a local slice
// allocated fresh in the same function: steady-state growth the pooled
// buffers exist to avoid.
func checkFreshAppends(pass *Pass, fd *ast.FuncDecl) {
	body := fd.Body
	// First pass: how is each local slice initialized?
	fresh := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok.String() != ":=" {
				return true
			}
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(st.Rhs) {
					continue
				}
				obj := pass.Info.ObjectOf(id)
				if obj == nil || !isSliceType(obj.Type()) {
					continue
				}
				if freshSliceInit(pass.Info, st.Rhs[i]) {
					fresh[obj] = true
				}
			}
		case *ast.ValueSpec:
			for i, nm := range st.Names {
				obj := pass.Info.ObjectOf(nm)
				if obj == nil || !isSliceType(obj.Type()) {
					continue
				}
				var init ast.Expr
				if i < len(st.Values) {
					init = st.Values[i]
				}
				if freshSliceInit(pass.Info, init) {
					fresh[obj] = true
				}
			}
		}
		return true
	})
	if len(fresh) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !ok {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isAppend(pass.Info, call) {
			return true
		}
		if obj := pass.Info.ObjectOf(id); obj != nil && fresh[obj] {
			pass.Reportf(as.Pos(), "append grows %s, a slice allocated fresh in this function; "+
				"reuse a pooled buffer or a caller-provided one (the AppendPath idiom)", id.Name)
			delete(fresh, obj) // one finding per slice
		}
		return true
	})
}

func isSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// checkLoopClosures flags capturing closures created inside loops: one
// heap allocation per iteration. Capture-free literals compile to a
// static function value and stay exempt.
func checkLoopClosures(pass *Pass, fd *ast.FuncDecl) {
	seen := make(map[*ast.FuncLit]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		switch st := n.(type) {
		case *ast.ForStmt:
			loopBody = st.Body
		case *ast.RangeStmt:
			loopBody = st.Body
		default:
			return true
		}
		ast.Inspect(loopBody, func(inner ast.Node) bool {
			lit, ok := inner.(*ast.FuncLit)
			if !ok || seen[lit] {
				return true
			}
			seen[lit] = true
			if v := funcLitCaptures(pass.Info, fd, lit); v != nil {
				pass.Reportf(lit.Pos(), "closure capturing %s is allocated on every loop iteration; "+
					"hoist it out of the loop or use the prebound-callback idiom", v.Name())
			}
			return true
		})
		return true
	})
}

// boxes reports whether passing a value of type t to an interface
// parameter forces a heap allocation: struct, array, float and complex
// values do; pointers, channels, maps, funcs and interfaces fit the
// word directly, and small integers, booleans and strings are either
// cached or accepted noise.
func boxes(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		return u.NumFields() > 0
	case *types.Array:
		return u.Len() > 0
	case *types.Basic:
		return u.Info()&(types.IsFloat|types.IsComplex) != 0
	}
	return false
}

// panicArgRanges collects the source ranges of arguments to the panic
// builtin. Boxing inside them is exempt: a panic is a model-invariant
// assertion that aborts the run, so its formatting cost is never part
// of steady state.
func panicArgRanges(info *types.Info, body *ast.BlockStmt) [][2]token.Pos {
	var ranges [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			ranges = append(ranges, [2]token.Pos{call.Lparen, call.Rparen})
		}
		return true
	})
	return ranges
}

// checkInterfaceBoxing flags struct/array/float arguments passed to
// interface-typed parameters inside hot functions.
func checkInterfaceBoxing(pass *Pass, fd *ast.FuncDecl) {
	panicRanges := panicArgRanges(pass.Info, fd.Body)
	inPanic := func(pos token.Pos) bool {
		for _, r := range panicRanges {
			if pos > r[0] && pos < r[1] {
				return true
			}
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || inPanic(call.Pos()) {
			return !ok // no boxing findings under a panic argument
		}
		tv, ok := pass.Info.Types[call.Fun]
		if ok && tv.IsType() {
			// Conversion: T(x). Flag conversions to interface types.
			if len(call.Args) == 1 && types.IsInterface(tv.Type.Underlying()) && boxes(pass.Info.TypeOf(call.Args[0])) {
				pass.Reportf(call.Pos(), "conversion to interface boxes a %s value on the heap",
					pass.Info.TypeOf(call.Args[0]).String())
			}
			return true
		}
		sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
		if !ok {
			return true
		}
		params := sig.Params()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= params.Len()-1:
				if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
					pt = s.Elem()
				}
			case i < params.Len():
				pt = params.At(i).Type()
			}
			if pt == nil || !types.IsInterface(pt.Underlying()) {
				continue
			}
			at := pass.Info.TypeOf(arg)
			if boxes(at) {
				pass.Reportf(arg.Pos(), "%s value boxed into an interface argument allocates; "+
					"pass a pointer or restructure the callback payload", at.String())
			}
		}
		return true
	})
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file holds the SSA-lite value-flow helpers shared by the
// interprocedural analyzers: no real SSA form is built — the helpers
// answer targeted questions (does this function return a map-ordered
// slice, what does this closure capture) over the type-checked AST,
// with small fixpoints where assignment chains matter.

// mapOrderedResult reports whether fd builds a returned slice by
// appending inside a `for range` over a map with no sort after the
// loop — the function's result then carries Go's randomized map
// iteration order. It returns the offending range statement's
// position, or token.NoPos.
//
// This is the interprocedural face of the maporder rule: a function
// with this shape is a determinism-taint source for every caller, even
// callers in other packages that never see the map.
func mapOrderedResult(info *types.Info, fd *ast.FuncDecl) token.Pos {
	body := fd.Body
	results := make(map[types.Object]bool)
	if fd.Type.Results != nil {
		for _, f := range fd.Type.Results.List {
			for _, nm := range f.Names {
				if obj := info.Defs[nm]; obj != nil {
					results[obj] = true
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			if id, ok := ast.Unparen(r).(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil {
					results[obj] = true
				}
			}
		}
		return true
	})
	if len(results) == 0 {
		return token.NoPos
	}
	bad := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		if bad.IsValid() {
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		feeds := false
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			if feeds {
				return false
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok || !isAppend(info, call) {
				return true
			}
			if obj := info.ObjectOf(id); obj != nil && results[obj] {
				feeds = true
			}
			return true
		})
		if feeds && !sortsAfter(info, body, rs) {
			bad = rs.Pos()
		}
		return true
	})
	return bad
}

// funcLitCaptures returns the first variable lit's body captures from
// its enclosing function — a variable (parameter, receiver or local,
// never a field or package-level name) declared inside host but
// outside lit. A capturing closure forces a heap allocation at every
// evaluation of the literal.
func funcLitCaptures(info *types.Info, host ast.Node, lit *ast.FuncLit) *types.Var {
	var captured *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.ObjectOf(id).(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package-level variable, not a capture
		}
		if v.Pos() < lit.Pos() && v.Pos() >= host.Pos() {
			captured = v
		}
		return true
	})
	return captured
}

// declaredWithin reports whether obj's declaration lies inside the
// [from, to] source range.
func declaredWithin(obj types.Object, from, to token.Pos) bool {
	return obj != nil && obj.Pos() >= from && obj.Pos() <= to
}

// chainBase walks an lvalue chain (selectors, indexes, derefs,
// parens) down to its base expression.
func chainBase(expr ast.Expr) ast.Expr {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return expr
		}
	}
}

// Package lint implements odblint, the repository's stdlib-only static
// analysis driver. The paper's pivot-point methodology assumes every
// (W, P) measurement is exactly reproducible, so the simulator enforces
// a handful of hygiene invariants — all entropy flows through
// internal/xrand, map iteration never orders output, sentinel errors
// are matched with errors.Is, floats are never compared with ==, and
// context-taking loops observe cancellation. odblint turns those
// conventions into machine-checked rules.
//
// The driver is written only against the standard library (go/parser,
// go/ast, go/types, go/token) plus the go command: the module has zero
// dependencies and must stay that way. `go list` names each package's
// files and the compiled export data of the standard library; module
// packages are type-checked from source, standard-library imports are
// read from that export data with the gc importer.
//
// Findings print as "file:line: [rule] message" and any finding makes
// the driver exit non-zero. A finding may be suppressed by a
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// comment on the offending line or the line directly above it; the
// reason is mandatory. A directive glued to its prefix, missing its
// rule or reason, or naming a rule odblint does not have is itself a
// finding and suppresses nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
	"unicode"
)

// A Finding is one rule violation at a source position. Col is the
// 1-based column; it participates in the deterministic sort order but
// not in the one-line text format.
type Finding struct {
	File string
	Line int
	Col  int
	Rule string
	Msg  string
}

// String renders the finding in the driver's one-line format.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Msg)
}

// An Analyzer is one lint rule: a named check run over a type-checked
// package unit.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full rule set in reporting order: the six
// intra-procedural rules plus the two interprocedural analyzers built
// on the call-graph layer (see callgraph.go).
func All() []*Analyzer {
	return []*Analyzer{
		Determinism, MapOrder, SentinelErr, FloatEq, CtxLoop, HotWaiver,
		TaintDet, HotAlloc,
	}
}

// A Pass hands one type-checked unit to an analyzer and collects its
// findings.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the unit's import path; scoped rules (determinism) key
	// off it.
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Prog is the module-wide call graph and dataflow layer. It is nil
	// when the unit was loaded standalone (CheckDir) or when no
	// analyzed package needs interprocedural facts; analyzers that
	// require it must no-op on nil.
	Prog     *Program
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		File: position.Filename,
		Line: position.Line,
		Col:  position.Column,
		Rule: p.Analyzer.Name,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos sits in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// unit is one analysis target: a parsed, fully type-checked set of
// files belonging to a single package.
type unit struct {
	path  string
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// runUnit applies the analyzers to a unit and filters the result
// through the unit's //lint:ignore directives.
func runUnit(u *unit, analyzers []*Analyzer, prog *Program) []Finding {
	var fs []Finding
	for _, a := range analyzers {
		a.Run(&Pass{
			Analyzer: a,
			Fset:     u.fset,
			Path:     u.path,
			Files:    u.files,
			Pkg:      u.pkg,
			Info:     u.info,
			Prog:     prog,
			findings: &fs,
		})
	}
	idx, bad := collectDirectives(u.fset, u.files)
	fs = filterSuppressed(fs, idx)
	fs = append(fs, bad...)
	return fs
}

// sortFindings orders findings for deterministic output. The order is
// total — (file, line, column, rule, message) — so two analyzers
// firing on the same file:line always report in the same sequence, no
// matter which analyzer or unit produced which finding first.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// parseDirective splits the text of a //lint:ignore comment into the
// rules it waives and its reason; ok is false for any other comment.
// A directive with no whitespace after the prefix, or missing its rule
// list or its reason, is malformed and returns nil rules.
func parseDirective(text string) (rules []string, reason string, ok bool) {
	rest, ok := strings.CutPrefix(text, "//lint:ignore")
	if !ok {
		return nil, "", false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 || strings.TrimLeftFunc(rest, unicode.IsSpace) == rest {
		return nil, "", true
	}
	return strings.Split(fields[0], ","), strings.Join(fields[1:], " "), true
}

// directiveIndex maps file -> line -> set of rule names ignored there.
type directiveIndex map[string]map[int]map[string]bool

// collectDirectives scans the unit's comments for //lint:ignore
// directives. A malformed directive, or one naming a rule not in All(),
// suppresses nothing and is returned as a finding under the
// pseudo-rule "lint".
func collectDirectives(fset *token.FileSet, files []*ast.File) (directiveIndex, []Finding) {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	idx := make(directiveIndex)
	var bad []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ruleList, _, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				problem := ""
				if ruleList == nil {
					problem = "malformed //lint:ignore directive: want \"//lint:ignore <rule> <reason>\""
				} else if i := slices.IndexFunc(ruleList, func(r string) bool { return !known[r] }); i >= 0 {
					problem = fmt.Sprintf("//lint:ignore names unknown rule %q; odblint -list prints the rules", ruleList[i])
				}
				if problem != "" {
					bad = append(bad, Finding{
						File: pos.Filename,
						Line: pos.Line,
						Rule: "lint",
						Msg:  problem,
					})
					continue
				}
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					idx[pos.Filename] = byLine
				}
				rules := byLine[pos.Line]
				if rules == nil {
					rules = make(map[string]bool)
					byLine[pos.Line] = rules
				}
				for _, r := range ruleList {
					rules[r] = true
				}
			}
		}
	}
	return idx, bad
}

// filterSuppressed drops findings covered by a directive on the same
// line (trailing comment) or the line directly above.
func filterSuppressed(fs []Finding, idx directiveIndex) []Finding {
	if len(idx) == 0 {
		return fs
	}
	kept := fs[:0]
	for _, f := range fs {
		byLine := idx[f.File]
		if byLine != nil && (byLine[f.Line][f.Rule] || byLine[f.Line-1][f.Rule]) {
			continue
		}
		kept = append(kept, f)
	}
	return kept
}

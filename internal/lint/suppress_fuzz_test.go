package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// FuzzSuppressionDirective hammers the //lint:ignore parser with
// arbitrary comment text. The invariants: collectDirectives never
// panics; a directive glued to its prefix, missing its rule or reason,
// or naming a rule odblint does not have is always reported as a
// [lint] finding (and suppresses nothing); and a well-formed directive
// is always indexed.
func FuzzSuppressionDirective(f *testing.F) {
	// Seeds: the shapes from testdata/suppress and testdata/malformed,
	// plus the edge cases the grammar invites.
	f.Add("//lint:ignore sentinelerr io.EOF identity is the io.Reader contract here")
	f.Add("//lint:ignore sentinelerr reader contract")
	f.Add("//lint:ignore floateq")
	f.Add("//lint:ignore")
	f.Add("//lint:ignore hotalloc,taintdet shared scratch reuse")
	f.Add("//lint:ignore , empty rule list")
	f.Add("//lint:ignorefloateq glued rule")
	f.Add("//lint:ignore\tfloateq\ttabs as separators")
	f.Add("//lint:ignore floateq  ")
	f.Add("// lint:ignore floateq leading space disarms")
	f.Add("//lint:ignore floatq misspelt rule")
	f.Fuzz(func(t *testing.T, comment string) {
		if strings.ContainsAny(comment, "\n\r") || !strings.HasPrefix(comment, "//") {
			t.Skip()
		}
		src := "package p\n\n" + comment + "\nvar X = 1\n"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Skip() // comment text the scanner rejects is out of scope
		}
		idx, bad := collectDirectives(fset, []*ast.File{file})
		if !strings.HasPrefix(comment, "//lint:ignore") {
			if len(bad) != 0 || len(idx) != 0 {
				t.Fatalf("non-directive %q produced findings %v / index %v", comment, bad, idx)
			}
			return
		}
		rest := strings.TrimPrefix(comment, "//lint:ignore")
		fields := strings.Fields(rest)
		glued := strings.TrimLeftFunc(rest, unicode.IsSpace) == rest
		if len(fields) < 2 || glued || slices.ContainsFunc(strings.Split(fields[0], ","), func(r string) bool {
			return !slices.ContainsFunc(All(), func(a *Analyzer) bool { return a.Name == r })
		}) {
			// Malformed or unknown rule: must be a [lint] finding and must not index.
			if len(bad) != 1 || bad[0].Rule != "lint" {
				t.Fatalf("malformed directive %q: want one [lint] finding, got %v", comment, bad)
			}
			if len(idx) != 0 {
				t.Fatalf("malformed directive %q still suppresses: %v", comment, idx)
			}
			return
		}
		if len(bad) != 0 {
			t.Fatalf("well-formed directive %q reported as malformed: %v", comment, bad)
		}
		if len(idx) != 1 {
			t.Fatalf("well-formed directive %q not indexed: %v", comment, idx)
		}
	})
}

package lint

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// runModuleFixture lints a testdata mini-module (its own go.mod names
// it "odbscale" so the scope table matches) through the full driver,
// interprocedural layer included, and returns "path:line: [rule] msg"
// lines with slash-separated paths.
func runModuleFixture(t *testing.T, mod string) []string {
	t.Helper()
	start := filepath.Join("testdata", mod)
	findings, err := runWithChecker(checker, start, []string{"./..."})
	if err != nil {
		t.Fatalf("lint %s: %v", mod, err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%d: [%s] %s", filepath.ToSlash(f.File), f.Line, f.Rule, f.Msg))
	}
	return got
}

// TestTaintFixture pins the transitive-determinism corpus: wrappers in
// an unscoped package do not defeat the rule, reported paths name the
// hops, and the injectable-clock pattern (returning time.Now as a
// value) stays clean.
func TestTaintFixture(t *testing.T) {
	got := runModuleFixture(t, "mod_taint")
	checkGolden(t, "mod_taint", got)
	joined := strings.Join(got, "\n")
	if !strings.Contains(joined, "timeutil.Stamp") || !strings.Contains(joined, "time.Now") {
		t.Errorf("taintdet missed the two-hop clock wrapper:\n%s", joined)
	}
	if !strings.Contains(joined, "->") {
		t.Errorf("taintdet findings carry no call path:\n%s", joined)
	}
	for _, clean := range []string{"Scale", "Inject", "Clock"} {
		if strings.Contains(joined, clean) {
			t.Errorf("taintdet flagged the clean function %s:\n%s", clean, joined)
		}
	}
}

// TestHotAllocFixture pins the allocation-discipline corpus: the four
// allocation classes fire on the event path, and construction-time
// code, unreachable code, panic assertions and perf-waived fallbacks
// stay exempt.
func TestHotAllocFixture(t *testing.T) {
	got := runModuleFixture(t, "mod_hotalloc")
	checkGolden(t, "mod_hotalloc", got)
}

// TestSimEventPathAllocRegression is the acceptance pin: a seeded heap
// allocation on the sim event path must be caught, in each of the four
// classes — including one reached only through a callback reference.
func TestSimEventPathAllocRegression(t *testing.T) {
	joined := strings.Join(runModuleFixture(t, "mod_hotalloc"), "\n")
	wantLines := map[string]string{
		"escaping composite": "composite literal escapes",
		"two-step escape":    "holds this composite literal's address",
		"fresh append":       "append grows ids",
		"loop closure":       "allocated on every loop iteration",
		"interface boxing":   "boxed into an interface argument",
		"ref-edge reach":     "append grows out",
	}
	for class, marker := range wantLines {
		if !strings.Contains(joined, marker) {
			t.Errorf("hotalloc missed the %s class (no %q):\n%s", class, marker, joined)
		}
	}
	for _, exempt := range []string{"NewEngine", "Orphan", "guard", "spill"} {
		for _, line := range strings.Split(joined, "\n") {
			if strings.Contains(line, exempt) {
				t.Errorf("hotalloc flagged exempt function %s: %s", exempt, line)
			}
		}
	}
}

// TestGoCommandPackageView pins the loader to the go command's view of
// a module tree: ./... reaches a module nested under the linted one,
// and a file whose name restricts it to another GOOS (_plan9.go) is
// left out, as go build leaves it out.
func TestGoCommandPackageView(t *testing.T) {
	got := runModuleFixture(t, "mod_nested")
	checkGolden(t, "mod_nested", got)
	joined := strings.Join(got, "\n")
	if !strings.Contains(joined, "inner/inner.go") {
		t.Errorf("the nested module was not linted:\n%s", joined)
	}
	if strings.Contains(joined, "_plan9.go") {
		t.Errorf("a plan9-only file was linted:\n%s", joined)
	}
}

// TestFindingOrderDeterministic runs the same-line corpus twice and
// requires byte-identical findings, in the total (file, line, column,
// rule, message) order — the cross-analyzer ordering regression test.
func TestFindingOrderDeterministic(t *testing.T) {
	load := func() []Finding {
		findings, err := checker.CheckDir(filepath.Join("testdata", "order"), simScope, All())
		if err != nil {
			t.Fatal(err)
		}
		return findings
	}
	first, second := load(), load()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("two identical runs disagree:\n%v\nvs\n%v", first, second)
	}
	if len(first) < 4 {
		t.Fatalf("order corpus produced %d findings, want at least 4:\n%v", len(first), first)
	}
	if !sort.SliceIsSorted(first, func(i, j int) bool {
		a, b := first[i], first[j]
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
	}) {
		t.Errorf("findings are not in total order:\n%v", first)
	}
	var got []string
	for _, f := range first {
		got = append(got, fmt.Sprintf("%s:%d:%d: [%s] %s", filepath.Base(f.File), f.Line, f.Col, f.Rule, f.Msg))
	}
	checkGolden(t, "order", got)
}

// TestSortFindingsTotalOrder drives the comparator directly on ties a
// real corpus cannot force: same position, different rule and message.
func TestSortFindingsTotalOrder(t *testing.T) {
	fs := []Finding{
		{File: "a.go", Line: 1, Col: 5, Rule: "zeta", Msg: "m"},
		{File: "a.go", Line: 1, Col: 5, Rule: "alpha", Msg: "n"},
		{File: "a.go", Line: 1, Col: 5, Rule: "alpha", Msg: "m"},
		{File: "a.go", Line: 1, Col: 2, Rule: "zeta", Msg: "m"},
	}
	sortFindings(fs)
	want := []Finding{
		{File: "a.go", Line: 1, Col: 2, Rule: "zeta", Msg: "m"},
		{File: "a.go", Line: 1, Col: 5, Rule: "alpha", Msg: "m"},
		{File: "a.go", Line: 1, Col: 5, Rule: "alpha", Msg: "n"},
		{File: "a.go", Line: 1, Col: 5, Rule: "zeta", Msg: "m"},
	}
	if !reflect.DeepEqual(fs, want) {
		t.Errorf("sortFindings order:\ngot  %v\nwant %v", fs, want)
	}
}

// lintBudget is the CI wall-clock ceiling for one whole-repository
// lint run. The suite runs in a few seconds; the ceiling guards the
// call-graph layer against superlinear regressions, not noise.
const lintBudget = 30 * time.Second

// TestRepoLintsClean pins two acceptance criteria at once: the
// repository lints clean under all eight analyzers, and one whole-repo
// run fits the CI budget.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo lint in -short mode")
	}
	begin := time.Now()
	findings, err := runWithChecker(checker, filepath.Join("..", ".."), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(begin)
	for _, f := range findings {
		t.Errorf("repository finding: %s", f)
	}
	if elapsed > lintBudget && !raceEnabled {
		t.Errorf("whole-repo lint took %v, over the %v CI budget", elapsed, lintBudget)
	}
}

// BenchmarkLintWholeRepo measures one full eight-analyzer pass over the
// repository, the number the CI budget assertion above is pinned to.
func BenchmarkLintWholeRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		findings, err := runWithChecker(checker, filepath.Join("..", ".."), []string{"./..."})
		if err != nil {
			b.Fatal(err)
		}
		if len(findings) != 0 {
			b.Fatalf("repository is not clean: %v", findings)
		}
	}
}

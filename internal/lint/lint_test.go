package lint

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the expected-findings golden files")

// checker is shared across tests so each standard-library package's
// export data is listed and read only once.
var checker = NewChecker()

// runFixture lints one testdata directory under the given import path
// and returns the findings formatted as "base:line: [rule] msg".
func runFixture(t *testing.T, dir, asPath string) []string {
	t.Helper()
	findings, err := checker.CheckDir(filepath.Join("testdata", dir), asPath, All())
	if err != nil {
		t.Fatalf("CheckDir(%s): %v", dir, err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%d: [%s] %s", filepath.Base(f.File), f.Line, f.Rule, f.Msg))
	}
	return got
}

// checkGolden compares findings against testdata/<dir>/expected.txt,
// rewriting the file under -update.
func checkGolden(t *testing.T, dir string, got []string) {
	t.Helper()
	golden := filepath.Join("testdata", dir, "expected.txt")
	if *update {
		data := strings.Join(got, "\n")
		if data != "" {
			data += "\n"
		}
		if err := os.WriteFile(golden, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	var want []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			want = append(want, line)
		}
	}
	if gotJoined, wantJoined := strings.Join(got, "\n"), strings.Join(want, "\n"); gotJoined != wantJoined {
		t.Errorf("findings mismatch for %s:\n--- got ---\n%s\n--- want ---\n%s", dir, gotJoined, wantJoined)
	}
}

// simScope is a determinism-scoped package path the fixtures borrow.
const simScope = "odbscale/internal/sim"

func TestFixtures(t *testing.T) {
	cases := []struct {
		dir    string
		asPath string
	}{
		// Each rule's positive and negative corpus: pos.go lines land
		// in the golden file, neg.go (and *_test.go exemptions)
		// contribute nothing.
		{"determinism", simScope},
		{"telemetry", "odbscale/internal/telemetry"},
		{"qstats", "odbscale/internal/qstats"},
		{"profile", "odbscale/internal/profile"},
		{"maporder", "odbscale/internal/lint/fixture/maporder"},
		{"sentinelerr", "odbscale/internal/lint/fixture/sentinelerr"},
		{"floateq", "odbscale/internal/lint/fixture/floateq"},
		{"tolerant", "odbscale/internal/stats"},
		{"ctxloop", "odbscale/internal/lint/fixture/ctxloop"},
		{"hotwaiver", simScope},
		{"suppress", "odbscale/internal/lint/fixture/suppress"},
		{"malformed", "odbscale/internal/lint/fixture/malformed"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			checkGolden(t, tc.dir, runFixture(t, tc.dir, tc.asPath))
		})
	}
}

// TestDeterminismScope loads the determinism corpus outside the
// simulator packages: the same entropy calls must not be flagged.
func TestDeterminismScope(t *testing.T) {
	if got := runFixture(t, "determinism", "odbscale/internal/lint/fixture/unscoped"); len(got) != 0 {
		t.Errorf("determinism fired outside its package scope:\n%s", strings.Join(got, "\n"))
	}
}

// TestEngineScopeCovered pins the storage-engine packages into the
// determinism and hot-path scopes: the same corpora that fire under
// internal/sim must fire when loaded as the engine seam and both
// engine implementations. An engine that read the wall clock or leaked
// allocations into the per-op path would break bit-identity pins and
// the bench trajectory exactly like core simulator code.
func TestEngineScopeCovered(t *testing.T) {
	for _, path := range []string{
		"odbscale/internal/engine",
		"odbscale/internal/engine/btree",
		"odbscale/internal/engine/lsm",
	} {
		if !packageScope[path].has(deterministic) {
			t.Errorf("%s lacks the deterministic role", path)
		}
		if !packageScope[path].has(allocFree) {
			t.Errorf("%s lacks the allocFree role", path)
		}
		if !packageScope[path].has(hotPath) {
			t.Errorf("%s lacks the hotPath role", path)
		}
		if got := runFixture(t, "determinism", path); len(got) == 0 {
			t.Errorf("determinism corpus produced no findings under %s", path)
		} else {
			checkGolden(t, "determinism", got)
		}
		if got := runFixture(t, "hotwaiver", path); len(got) == 0 {
			t.Errorf("hotwaiver corpus produced no findings under %s", path)
		}
	}
}

// TestQStatsScopeCovered pins the queueing-observatory package into the
// determinism, hot-alloc and hot-path scopes, and checks its corpus: a
// station accumulator that read the wall clock or drew ambient entropy
// would silently break the bit-identity pin of WithQueueStats, and an
// allocation on the accumulation path would break the observation-only
// overhead contract.
func TestQStatsScopeCovered(t *testing.T) {
	const path = "odbscale/internal/qstats"
	if !packageScope[path].has(deterministic) {
		t.Errorf("%s lacks the deterministic role", path)
	}
	if !packageScope[path].has(allocFree) {
		t.Errorf("%s lacks the allocFree role", path)
	}
	if !packageScope[path].has(hotPath) {
		t.Errorf("%s lacks the hotPath role", path)
	}
	if got := runFixture(t, "qstats", path); len(got) == 0 {
		t.Error("qstats corpus produced no findings under its scope")
	} else {
		checkGolden(t, "qstats", got)
	}
	// The same corpus outside the simulator scopes stays clean.
	if got := runFixture(t, "qstats", "odbscale/internal/lint/fixture/unscoped"); len(got) != 0 {
		t.Errorf("qstats rules fired outside their package scope:\n%s", strings.Join(got, "\n"))
	}
}

// TestStorageWaiverScopeCovered pins the disk array into the waiver
// audit: internal/storage is checked by hotalloc, and every package
// hotalloc checks must also have its //lint:ignore reasons name the
// perf concern they protect.
func TestStorageWaiverScopeCovered(t *testing.T) {
	if got := runFixture(t, "hotwaiver", "odbscale/internal/storage"); len(got) == 0 {
		t.Error("hotwaiver corpus produced no findings under odbscale/internal/storage")
	} else {
		checkGolden(t, "hotwaiver", got)
	}
}

// TestHotWaiverScope loads the hotwaiver corpus outside the hot-path
// packages: the same vague waivers must not be flagged there.
func TestHotWaiverScope(t *testing.T) {
	if got := runFixture(t, "hotwaiver", "odbscale/internal/lint/fixture/coldpath"); len(got) != 0 {
		t.Errorf("hotwaiver fired outside its package scope:\n%s", strings.Join(got, "\n"))
	}
}

// TestTelemetrySamplerRegression pins the flight-recorder guarantee: a
// time.Now sneaking into the telemetry package's sampler path is a lint
// failure, while the same corpus loaded as a cmd/ package (where a
// command's wall-clock timing legitimately lives) stays clean.
func TestTelemetrySamplerRegression(t *testing.T) {
	got := runFixture(t, "telemetry", "odbscale/internal/telemetry")
	joined := strings.Join(got, "\n")
	if !strings.Contains(joined, "time.Now") || !strings.Contains(joined, "time.Since") {
		t.Errorf("determinism missed the wall-clock sampler regression:\n%s", joined)
	}
	if unscoped := runFixture(t, "telemetry", "odbscale/cmd/odbrun"); len(unscoped) != 0 {
		t.Errorf("determinism fired on a cmd/ package:\n%s", strings.Join(unscoped, "\n"))
	}
}

// TestToleranceHelperScope loads the tolerance-helper corpus outside
// internal/stats: with the exemption gone, Close and Within are
// flagged like any other function.
func TestToleranceHelperScope(t *testing.T) {
	got := runFixture(t, "tolerant", "odbscale/internal/lint/fixture/tolerant")
	// close.go holds three == comparisons (Close, Within, Leaky); all
	// must fire outside the stats package.
	if len(got) != 3 {
		t.Errorf("want 3 floateq findings outside internal/stats, got %d:\n%s",
			len(got), strings.Join(got, "\n"))
	}
}

// TestSuppressionRequiresReason double-checks the malformed corpus:
// the bad directive is itself a finding and does not suppress.
func TestSuppressionRequiresReason(t *testing.T) {
	got := runFixture(t, "malformed", "odbscale/internal/lint/fixture/malformed")
	var rules []string
	for _, line := range got {
		rules = append(rules, line[strings.Index(line, "["):])
	}
	joined := strings.Join(got, "\n")
	if len(got) != 2 || !strings.Contains(joined, "[lint]") || !strings.Contains(joined, "[floateq]") {
		t.Errorf("want one [lint] and one [floateq] finding, got %v", rules)
	}
}

// TestMainExitCodes drives the odblint entry point end to end: a
// fixture with violations exits 1 and prints findings, a suppressed
// fixture exits 0, and a bad pattern exits 2.
func TestMainExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"testdata/sentinelerr"}, &stdout, &stderr); code != 1 {
		t.Fatalf("Main on a dirty fixture = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "[sentinelerr]") {
		t.Errorf("findings missing from stdout:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := Main([]string{"testdata/suppress"}, &stdout, &stderr); code != 0 {
		t.Fatalf("Main on a suppressed fixture = %d, want 0\nstdout: %s\nstderr: %s",
			code, stdout.String(), stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := Main([]string{"testdata/does-not-exist"}, &stdout, &stderr); code != 2 {
		t.Fatalf("Main on a missing dir = %d, want 2", code)
	}
}

// TestOneOutputFlag pins the driver's surface to text findings plus
// -list: the retired output and waiver-ledger flags are usage errors.
func TestOneOutputFlag(t *testing.T) {
	for _, flag := range []string{"-json", "-sarif=-", "-baseline=x.json", "-update-baseline"} {
		var stdout, stderr bytes.Buffer
		if code := Main([]string{flag, "testdata/sentinelerr"}, &stdout, &stderr); code != 2 {
			t.Errorf("Main(%s) = %d, want 2", flag, code)
		}
	}
}

// TestListRules keeps the -list surface alive for the CI wiring.
func TestListRules(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("Main(-list) = %d, want 0", code)
	}
	for _, a := range All() {
		if !strings.Contains(stdout.String(), a.Name) {
			t.Errorf("-list output missing rule %q", a.Name)
		}
	}
}

// TestDirectiveGrammar pins the //lint:ignore grammar: whitespace must
// follow the prefix, and every waived rule must be one odblint has. A
// directive that breaks either rule is a [lint] finding and suppresses
// nothing, so a typo in a waiver cannot fail silently.
func TestDirectiveGrammar(t *testing.T) {
	cases := []struct {
		comment string
		bad     string // substring of the [lint] finding; "" for a valid waiver
	}{
		{"//lint:ignore floateq exact sentinel value", ""},
		{"//lint:ignore\tfloateq,maporder\ttab separated", ""},
		{"//lint:ignorefloateq glued reason", "malformed"},
		{"//lint:ignore floatq typo", `unknown rule "floatq"`},
		{"//lint:ignore floateq,lint waiving the driver", `unknown rule "lint"`},
	}
	for _, tc := range cases {
		src := "package p\n\n" + tc.comment + "\nvar X = 1\n"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		idx, bad := collectDirectives(fset, []*ast.File{file})
		switch {
		case tc.bad == "" && (len(bad) != 0 || len(idx) != 1):
			t.Errorf("%q: want an indexed waiver, got findings %v, index %v", tc.comment, bad, idx)
		case tc.bad != "" && (len(bad) != 1 || bad[0].Rule != "lint" || !strings.Contains(bad[0].Msg, tc.bad) || len(idx) != 0):
			t.Errorf("%q: want one [lint] finding containing %q and no waiver, got findings %v, index %v", tc.comment, tc.bad, bad, idx)
		}
	}
}

package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJSONOutput drives -json end to end: a dirty fixture emits a
// parseable array carrying file/line/col/rule/msg, a clean one emits
// [] rather than null.
func TestJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"-json", "testdata/sentinelerr"}, &stdout, &stderr); code != 1 {
		t.Fatalf("Main(-json, dirty) = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	var findings []Finding
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("-json output is not a findings array: %v\n%s", err, stdout.String())
	}
	if len(findings) == 0 {
		t.Fatal("-json output is empty for a dirty fixture")
	}
	for _, f := range findings {
		if f.File == "" || f.Line == 0 || f.Col == 0 || f.Rule == "" || f.Msg == "" {
			t.Errorf("finding with missing fields: %+v", f)
		}
	}

	stdout.Reset()
	if code := Main([]string{"-json", "testdata/suppress"}, &stdout, &stderr); code != 0 {
		t.Fatalf("Main(-json, clean) = %d, want 0", code)
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("clean -json output = %q, want []", got)
	}
}

// TestSARIFOutput checks the -sarif surface: version, the full rule
// table (all eight analyzers plus the lint pseudo-rule), and one result
// per finding with a physical location.
func TestSARIFOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"-sarif", "-", "testdata/sentinelerr"}, &stdout, &stderr); code != 1 {
		t.Fatalf("Main(-sarif -, dirty) = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	var log sarifLog
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("-sarif output is not valid JSON: %v\n%s", err, stdout.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF envelope: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "odblint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	ruleIDs := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, a := range All() {
		if !ruleIDs[a.Name] {
			t.Errorf("SARIF rule table missing %q", a.Name)
		}
	}
	if !ruleIDs["lint"] {
		t.Error("SARIF rule table missing the lint pseudo-rule")
	}
	if len(run.Results) == 0 {
		t.Fatal("SARIF results empty for a dirty fixture")
	}
	for _, r := range run.Results {
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI == "" || loc.Region.StartLine == 0 {
			t.Errorf("SARIF result without a physical location: %+v", r)
		}
	}
}

// TestSARIFToFile checks that -sarif <file> writes the log without
// eating the text findings.
func TestSARIFToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "odblint.sarif")
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"-sarif", path, "testdata/sentinelerr"}, &stdout, &stderr); code != 1 {
		t.Fatalf("Main(-sarif file, dirty) = %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "[sentinelerr]") {
		t.Errorf("text findings suppressed when -sarif writes to a file:\n%s", stdout.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "2.1.0") {
		t.Errorf("SARIF file content unexpected:\n%s", data)
	}
}

// TestBaselineWorkflow drives the waiver-ledger loop end to end:
// -update-baseline waives the current findings, a -baseline run exits
// 0, and a finding beyond the ledgered count is still reported.
func TestBaselineWorkflow(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "lint-baseline.json")
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"-baseline", ledger, "-update-baseline", "testdata/sentinelerr"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-update-baseline = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := Main([]string{"-baseline", ledger, "testdata/sentinelerr"}, &stdout, &stderr); code != 0 {
		t.Fatalf("baselined run = %d, want 0\nstdout: %s", code, stdout.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "" {
		t.Errorf("baselined run still prints findings:\n%s", got)
	}
	// The ledger must not leak across keys: a different fixture's
	// findings stay fatal.
	stdout.Reset()
	if code := Main([]string{"-baseline", ledger, "testdata/floateq"}, &stdout, &stderr); code != 1 {
		t.Fatalf("baselined run on a different fixture = %d, want 1", code)
	}
}

// TestBaselineFilterExcess pins the per-key counting: the ledger
// covers exactly Count findings per (file, rule, msg) key and the
// excess is kept.
func TestBaselineFilterExcess(t *testing.T) {
	f := func(line int) Finding {
		return Finding{File: "x.go", Line: line, Rule: "hotalloc", Msg: "m"}
	}
	base := NewBaseline([]Finding{f(10)})
	kept := base.Filter([]Finding{f(10), f(20)})
	if len(kept) != 1 || kept[0].Line != 20 {
		t.Errorf("Filter kept %v, want the single line-20 excess finding", kept)
	}
	if kept := base.Filter([]Finding{f(12)}); len(kept) != 0 {
		t.Errorf("line-number drift broke the ledger match: %v", kept)
	}
}

// TestBaselineLoad covers the adoption path (missing file loads empty)
// and version rejection.
func TestBaselineLoad(t *testing.T) {
	b, err := LoadBaseline(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || len(b.Findings) != 0 {
		t.Fatalf("missing ledger: %v, %v", b, err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":2,"findings":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(bad); err == nil {
		t.Fatal("unsupported ledger version accepted")
	}
}

// TestUpdateBaselineRequiresPath pins the flag contract.
func TestUpdateBaselineRequiresPath(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"-update-baseline", "testdata/sentinelerr"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-update-baseline without -baseline = %d, want 2", code)
	}
}

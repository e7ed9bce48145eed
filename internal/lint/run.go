package lint

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Run lints the packages the patterns match (see LoadModule) with the
// full rule set and returns the findings, sorted, with file paths
// relative to start when possible.
// The module-wide call graph is built only when an analyzed package is
// in an interprocedural rule's scope, so linting a leaf fixture stays
// cheap.
func Run(start string, patterns []string) ([]Finding, error) {
	c := NewChecker()
	return runWithChecker(c, start, patterns)
}

// runWithChecker is Run with a caller-owned Checker, letting tests
// share the standard library's export data across many module loads.
func runWithChecker(c *Checker, start string, patterns []string) ([]Finding, error) {
	mod, err := LoadModule(c, start, patterns)
	if err != nil {
		return nil, err
	}
	var prog *Program
	for _, p := range mod.targets {
		// taintdet reads deterministic packages, hotalloc allocFree ones.
		if r := packageScope[p.ImportPath]; r.has(deterministic) || r.has(allocFree) {
			if prog, err = buildProgram(mod); err != nil {
				return nil, err
			}
			break
		}
	}
	analyzers := All()
	var findings []Finding
	for _, p := range mod.targets {
		units, err := mod.LoadUnits(p)
		if err != nil {
			return nil, err
		}
		for _, u := range units {
			findings = append(findings, runUnit(u, analyzers, prog)...)
		}
	}
	if abs, err := filepath.Abs(start); err == nil {
		for i := range findings {
			if rel, err := filepath.Rel(abs, findings[i].File); err == nil && !filepath.IsAbs(rel) {
				findings[i].File = rel
			}
		}
	}
	sortFindings(findings)
	return findings, nil
}

// Main is the odblint command: lint the given package patterns
// (default ./...) and print findings to stdout, one per line. The exit
// code is 0 for a clean tree, 1 when there are findings, and 2 on
// usage or load errors.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("odblint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the rules and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: odblint [flags] [packages]\n\nRules:\n")
		for _, a := range All() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "odblint:", err)
		return 2
	}
	findings, err := Run(cwd, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "odblint:", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "odblint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

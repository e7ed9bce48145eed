// Command odblint runs the repository's static-analysis suite: eight
// stdlib-only analyzers enforcing the determinism, cancellation,
// numeric-safety and allocation-discipline invariants the paper
// reproduction rests on. Six rules are intra-procedural; two —
// taintdet (transitive determinism taint) and hotalloc (per-event
// allocation discipline) — run over a module-wide call graph. See internal/lint for the rules and
// the suppression policy.
//
// Usage:
//
//	go run ./cmd/odblint [flags] ./...
//
//	-list             list the rules and exit
//	-json             emit findings as a JSON array
//	-sarif file       also write SARIF 2.1.0 ("-" for stdout)
//	-baseline file    subtract the committed waiver ledger
//	-update-baseline  rewrite the -baseline ledger and exit 0
//
// Exit status is 0 when the tree is clean (or every finding is covered
// by the baseline ledger), 1 when any new finding fires, and 2 on
// usage or load errors.
package main

import (
	"os"

	"odbscale/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}

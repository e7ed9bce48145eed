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
//	go run ./cmd/odblint [-list] [packages]
//
// With no packages it lints ./... and prints one
// "file:line: [rule] message" line per finding. -list prints the rules
// and exits. A finding is waived only by a
// "//lint:ignore <rule> <reason>" comment on or above its line. Exit
// status is 0 when the tree is clean, 1 when any finding fires, and 2
// on usage or load errors.
package main

import (
	"os"

	"odbscale/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}

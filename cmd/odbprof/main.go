// Command odbprof reads cycle-attribution profiles: it renders one as
// a per-phase CPI-breakdown table, folded flame-graph stacks or
// pprof-style text, and diffs two to expose attribution shifts (e.g.
// across the paper's cached-to-scaled pivot). Profiles come from
// odbrun -profile FILE or odbsweep -profile DIR.
//
// Usage:
//
//	odbprof report <profile.json>
//	odbprof folded <profile.json>
//	odbprof text   <profile.json>
//	odbprof diff   <a.json> <b.json>
//
// report prints the Figure 12-style event decomposition per engine
// phase; folded emits "txn;phase;mode cycles" lines for standard
// flame-graph tooling; text prints a flat pprof-like listing; diff
// compares two captured profiles frame by frame, largest attribution
// shift first.
package main

import (
	"fmt"
	"log"
	"os"

	"odbscale/internal/profile"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("odbprof: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "report":
		render(os.Args[2:], func(p *profile.Profile) error { return p.WriteCPITable(os.Stdout) })
	case "folded":
		render(os.Args[2:], func(p *profile.Profile) error { return p.WriteFolded(os.Stdout) })
	case "text":
		render(os.Args[2:], func(p *profile.Profile) error { return p.WriteText(os.Stdout) })
	case "diff":
		diff(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: odbprof report|folded|text|diff [args]")
	os.Exit(2)
}

// load reads one profile from a path ("-" = stdin).
func load(path string) *profile.Profile {
	r := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	p, err := profile.Decode(r)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return p
}

// render applies one output format to a single profile argument.
func render(args []string, write func(*profile.Profile) error) {
	if len(args) != 1 {
		log.Fatal("expected exactly one profile file (or - for stdin)")
	}
	if err := write(load(args[0])); err != nil {
		log.Fatal(err)
	}
}

// diff compares two profiles. It always exits 0 on a successful
// comparison — attribution shifts are findings, not failures — so CI
// can run it against a golden baseline without breaking on the
// platform-dependent float drift Go permits across architectures.
func diff(args []string) {
	if len(args) != 2 {
		log.Fatal("expected two profile files")
	}
	d := profile.Diff(load(args[0]), load(args[1]))
	if err := d.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// Command odbspan reads per-transaction span-trace dumps (written by
// odbrun -spans FILE or odbsweep -spans DIR): it renders the
// wait-state breakdown report (per-type latency quantiles decomposed
// into cpu / lock / io / busy / queue shares plus the slowest
// exemplar's critical path), exports Chrome trace-event JSON for
// chrome://tracing or Perfetto, lists the slowest sampled transactions,
// and diffs two dumps to expose wait-state shifts across configurations.
//
// Usage:
//
//	odbspan report <spans.json>
//	odbspan export <spans.json>
//	odbspan top    [-n count] <spans.json>
//	odbspan diff   <a.json> <b.json>
//
// report prints the wait-state table; export emits Chrome trace-event
// JSON; top lists the N slowest retained traces with their critical
// paths; diff compares two dumps per transaction type, exiting 0
// always — wait-state shifts are findings, not failures.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"odbscale/internal/txtrace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("odbspan: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "report":
		render(os.Args[2:], func(d *txtrace.Dump) error { return d.WriteReport(os.Stdout) })
	case "export":
		render(os.Args[2:], func(d *txtrace.Dump) error { return d.WriteChromeTrace(os.Stdout) })
	case "top":
		top(os.Args[2:])
	case "diff":
		diff(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: odbspan report|export|top|diff [args]")
	os.Exit(2)
}

// load reads one trace dump from a path ("-" = stdin).
func load(path string) *txtrace.Dump {
	r := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	d, err := txtrace.ReadDump(r)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return d
}

// render applies one output format to a single dump argument.
func render(args []string, write func(*txtrace.Dump) error) {
	if len(args) != 1 {
		log.Fatal("expected exactly one trace dump file (or - for stdin)")
	}
	if err := write(load(args[0])); err != nil {
		log.Fatal(err)
	}
}

// top lists the N slowest retained traces with their critical paths.
func top(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	n := fs.Int("n", 10, "number of traces to list")
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("expected exactly one trace dump file (or - for stdin)")
	}
	if err := load(fs.Arg(0)).WriteTop(os.Stdout, *n); err != nil {
		log.Fatal(err)
	}
}

// diff compares two dumps per transaction type. It always exits 0 on a
// successful comparison — wait-state shifts are findings, not failures
// — so CI can run it against a golden baseline.
func diff(args []string) {
	if len(args) != 2 {
		log.Fatal("expected two trace dump files")
	}
	if err := txtrace.WriteDiff(os.Stdout, load(args[0]), load(args[1])); err != nil {
		log.Fatal(err)
	}
}

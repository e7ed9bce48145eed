// Command odbq reads queueing-observatory reports (written by odbrun
// -qstats FILE or odbsweep -qstats DIR): it prints the station table
// with the operational-law audit (Little's law N = X·R and the
// utilization law U = X·S, checked per station), ranks the stations by
// the queueing delay they impose per transaction, and diffs two
// reports to expose demand shifts across a knob change. The
// bottleneck-shift table across a warehouse sweep comes from odbsweep
// -qstats DIR.
//
// Usage:
//
//	odbq report [-check] <report.json>
//	odbq rank   <report.json>
//	odbq diff   <a.json> <b.json>
//
// report prints the observatory table (-check exits 1 if any
// operational-law residual exceeds 1e-6 or the ranking is empty — the
// CI smoke contract). rank prints just the wait-demand ranking. diff
// compares two reports station by station.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"odbscale/internal/qstats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("odbq: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "report":
		report(os.Args[2:])
	case "rank":
		rank(os.Args[2:])
	case "diff":
		diff(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: odbq report|rank|diff [args]")
	os.Exit(2)
}

// report prints the observatory table of a saved report; -check exits
// 1 if any operational-law residual exceeds 1e-6 or the ranking is
// empty.
func report(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	check := fs.Bool("check", false, "exit 1 on an operational-law violation or empty ranking")
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("expected exactly one report file (or - for stdin)")
	}
	r := load(fs.Arg(0))
	if err := r.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if *check {
		if viol := r.Check(1e-6); len(viol) > 0 {
			for _, v := range viol {
				log.Printf("law violation: %s", v)
			}
			os.Exit(1)
		}
		if len(r.Ranking) == 0 {
			log.Fatal("empty bottleneck ranking")
		}
	}
}

// load reads one report from a path ("-" = stdin).
func load(path string) *qstats.Report {
	r := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	rep, err := qstats.ReadReport(r)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return rep
}

// rank prints the wait-demand ranking of a saved report.
func rank(args []string) {
	if len(args) != 1 {
		log.Fatal("expected exactly one report file (or - for stdin)")
	}
	r := load(args[0])
	for i, name := range r.Ranking {
		var d float64
		for j := range r.Stations {
			if r.Stations[j].Name == name {
				d = r.Stations[j].WaitDemandMS
				break
			}
		}
		fmt.Printf("%2d. %-10s Dwait=%.5fms\n", i+1, name, d)
	}
	if r.Bottleneck != "" {
		fmt.Printf("bottleneck: %s\n", r.Bottleneck)
	} else {
		fmt.Println("bottleneck: none")
	}
}

// diff compares two saved reports station by station. It always exits 0
// on a successful comparison — demand shifts are findings, not failures.
func diff(args []string) {
	if len(args) != 2 {
		log.Fatal("expected two report files")
	}
	if err := qstats.WriteDiff(os.Stdout, load(args[0]), load(args[1])); err != nil {
		log.Fatal(err)
	}
}

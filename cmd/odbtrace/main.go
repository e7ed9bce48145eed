// Command odbtrace replays a captured memory-reference trace against a
// sweep of L3 capacities — the trace-driven cache-study workflow of the
// memory-system literature the paper builds on. Capture once with
// odbrun -trace, sweep offline:
//
//	odbrun -w 200 -c 44 -p 4 -trace /tmp/odb.trace
//	odbtrace -replay /tmp/odb.trace -l3 1,2,4,8
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"odbscale/internal/cache"
	"odbscale/internal/system"
	"odbscale/internal/trace"
	"odbscale/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("odbtrace: ")
	o, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	replaySweep(o)
}

// options are the parsed command-line arguments.
type options struct {
	replay string
	l3     []int
	p      int
}

// parseArgs parses the flags. -replay is required: the trace to replay
// comes from odbrun -trace.
func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("odbtrace", flag.ContinueOnError)
	replay := fs.String("replay", "", "trace file to replay (written by odbrun -trace)")
	l3s := fs.String("l3", "1,2,4,8", "L3 capacities (MB) for the replay sweep")
	p := fs.Int("p", 4, "processors")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if *replay == "" {
		return options{}, errors.New("-replay is required (capture a trace with odbrun -trace FILE)")
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	sizes, err := parseL3List(*l3s)
	if err != nil {
		return options{}, err
	}
	return options{replay: *replay, l3: sizes, p: *p}, nil
}

// parseL3List parses the -l3 capacity list. Every entry must be a
// positive integer, blanks and duplicates are rejected — a sweep that
// silently skipped or repeated a capacity would misreport the study.
func parseL3List(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-l3 list is empty")
	}
	fields := strings.Split(s, ",")
	sizes := make([]int, 0, len(fields))
	seen := make(map[int]bool, len(fields))
	for i, field := range fields {
		field = strings.TrimSpace(field)
		if field == "" {
			return nil, fmt.Errorf("-l3 entry %d is empty (list %q)", i+1, s)
		}
		mb, err := strconv.Atoi(field)
		if err != nil {
			return nil, fmt.Errorf("-l3 entry %d: %q is not an integer", i+1, field)
		}
		if mb <= 0 {
			return nil, fmt.Errorf("-l3 entry %d: capacity must be positive, got %d", i+1, mb)
		}
		if seen[mb] {
			return nil, fmt.Errorf("-l3 entry %d: duplicate capacity %d", i+1, mb)
		}
		seen[mb] = true
		sizes = append(sizes, mb)
	}
	return sizes, nil
}

// replaySweep replays the trace once per L3 capacity and prints each
// capacity's miss statistics.
func replaySweep(o options) {
	scale := system.DefaultTuning().Scale
	for _, mb := range o.l3 {
		f, err := os.Open(o.replay)
		if err != nil {
			log.Fatal(err)
		}
		r, err := trace.NewReader(f)
		if err != nil {
			log.Fatal(err)
		}
		geo := cache.XeonGeometry()
		geo.L3Size = mb << 20
		geo = workload.ScaledGeometry(geo, scale)
		stats, err := trace.Replay(r, cache.NewDomain(geo, o.p, true))
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("L3=%dMB refs=%d L3miss=%d ratio=%.4f coher=%d writebacks=%d\n",
			mb, stats.Refs, stats.L3Misses, stats.L3MissRatio(), stats.CoherMiss, stats.Writebacks)
	}
}

// Command odbreport reads every observer file the simulator writes: the
// cycle-attribution profile, span-trace dump, queueing-observatory
// report, timeline and memory-reference trace of odbrun -profile,
// -spans, -qstats, -timeline and -trace, and the per-point files of
// odbsweep's -profile, -spans and -qstats directories. It works out a
// file's kind from the file itself: a file that starts with the trace
// magic ODBTR1 is a reference trace; otherwise the document's top-level
// JSON key decides ("frames": profile, "traces": spans, "stations":
// qstats, "samples": timeline).
//
// Usage:
//
//	odbreport report [-check] FILE                 profile, spans, qstats, timeline
//	odbreport diff A B                             profile, spans, qstats
//	odbreport folded|text FILE                     profile
//	odbreport export FILE                          spans
//	odbreport top [-n 10] FILE                     spans
//	odbreport rank FILE                            qstats
//	odbreport replay [-p 4] [-l3 1,2,4,8] FILE     trace
//
// FILE "-" reads standard input; a file is read whole.
//
// report prints a profile's per-phase CPI decomposition (Figure 12), a
// span dump's wait-state breakdown, a qstats report's station table
// with its operational-law audit, or a timeline's samples as a CSV
// table, one row per sample; -check, for qstats alone, exits 1 if a law
// residual exceeds 1e-6 or the ranking is empty. folded emits
// flame-graph stacks and text a pprof-like listing; export emits Chrome
// trace-event JSON and top the N slowest traces; rank lists the stations
// by wait demand. replay drives the trace through P processors' caches
// once per L3 capacity (MB). diff compares two files of one kind and
// exits 0 whatever it finds: shifts are findings, not failures.
//
// The exit status is 0 on success, 1 when a file cannot be read or a
// check fails and 2 on a usage error.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"odbscale/internal/cache"
	"odbscale/internal/profile"
	"odbscale/internal/qstats"
	"odbscale/internal/system"
	"odbscale/internal/telemetry"
	"odbscale/internal/trace"
	"odbscale/internal/txtrace"
	"odbscale/internal/workload"
)

// command writes one subcommand's output for the decoded documents of
// its file arguments.
type command func(w io.Writer, o options, docs []any) error

// A kind is one observer file format: how to detect it, how to decode
// it, and the subcommands and flags that read it.
type kind struct {
	name string
	// A file is of this kind if it starts with magic, or if it is a JSON
	// document with the top-level key key.
	magic, key string
	decode     func([]byte) (any, error)
	cmds       map[string]command
	flags      []string // the flags its subcommands take
	usage      string   // the subcommands, as the usage text lists them
}

var kinds = []kind{
	{
		name: "profile", key: "frames", decode: decoder(profile.Decode),
		cmds: map[string]command{
			"report": one((*profile.Profile).WriteCPITable),
			"folded": one((*profile.Profile).WriteFolded),
			"text":   one((*profile.Profile).WriteText),
			"diff": two(func(w io.Writer, a, b *profile.Profile) error {
				return profile.Diff(a, b).Write(w)
			}),
		},
		usage: "report | folded | text | diff A B",
	},
	{
		name: "spans", key: "traces", decode: decoder(txtrace.ReadDump),
		cmds: map[string]command{
			"report": one((*txtrace.Dump).WriteReport),
			"export": one((*txtrace.Dump).WriteChromeTrace),
			"top": func(w io.Writer, o options, docs []any) error {
				return docs[0].(*txtrace.Dump).WriteTop(w, o.n)
			},
			"diff": two(txtrace.WriteDiff),
		},
		flags: []string{"n"},
		usage: "report | export | top [-n N] | diff A B",
	},
	{
		name: "qstats", key: "stations", decode: decoder(qstats.ReadReport),
		cmds:  map[string]command{"report": qstatsReport, "rank": rank, "diff": two(qstats.WriteDiff)},
		flags: []string{"check"},
		usage: "report [-check] | rank | diff A B",
	},
	{
		name: "timeline", key: "samples", decode: decoder(telemetry.ReadTimeline),
		cmds:  map[string]command{"report": one((*telemetry.TimelineDump).WriteCSV)},
		usage: "report",
	},
	{
		name: "trace", magic: trace.Magic,
		decode: func(b []byte) (any, error) { return b, nil },
		cmds:   map[string]command{"replay": replay},
		flags:  []string{"p", "l3"},
		usage:  "replay [-p N] [-l3 MB,MB,...]",
	},
}

// decoder adapts a package's document reader to kind.decode.
func decoder[T any](read func(io.Reader) (*T, error)) func([]byte) (any, error) {
	return func(b []byte) (any, error) { return read(bytes.NewReader(b)) }
}

// one adapts a writer of one document.
func one[T any](write func(*T, io.Writer) error) command {
	return func(w io.Writer, _ options, docs []any) error { return write(docs[0].(*T), w) }
}

// two adapts a writer comparing two documents.
func two[T any](diff func(io.Writer, *T, *T) error) command {
	return func(w io.Writer, _ options, docs []any) error { return diff(w, docs[0].(*T), docs[1].(*T)) }
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError is a command-line mistake: run exits 2 on it and 1 on any
// other error.
type usageError string

func (e usageError) Error() string { return string(e) }

func usagef(format string, a ...any) error { return usageError(fmt.Sprintf(format, a...)) }

// run executes one command line and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	err := dispatch(args, stdout)
	if err == nil {
		return 0
	}
	fmt.Fprintf(stderr, "odbreport: %v\n", err)
	if errors.As(err, new(usageError)) {
		usage(stderr)
		return 2
	}
	return 1
}

// usage lists the subcommands by kind.
func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: odbreport SUBCOMMAND [flags] FILE (- reads stdin); by the file's kind:")
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-8s %s\n", k.name, k.usage)
	}
}

// dispatch loads the files, checks that their kind takes the subcommand
// and its flags, and runs it.
func dispatch(args []string, w io.Writer) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	var k *kind
	docs := make([]any, len(o.files))
	for i, path := range o.files {
		fk, doc, err := load(path)
		if err != nil {
			return err
		}
		if k != nil && fk != k {
			return usagef("%s: %s is a %s file but %s is a %s file", o.cmd, o.files[0], k.name, path, fk.name)
		}
		k, docs[i] = fk, doc
	}
	cmd, ok := k.cmds[o.cmd]
	if !ok {
		return usagef("%s: %s is a %s file, which takes %s", o.cmd, o.files[0], k.name, k.usage)
	}
	for _, f := range o.set {
		if !slices.Contains(k.flags, f) {
			return usagef("%s: -%s does not apply to %s files", o.cmd, f, k.name)
		}
	}
	return cmd(w, o, docs)
}

// options are one command line's parsed arguments.
type options struct {
	cmd   string
	files []string
	set   []string // the flags given, by name
	check bool     // report: audit the operational laws
	n     int      // top: traces to list
	p     int      // replay: processors
	l3    []int    // replay: L3 capacities in MB
}

// parseArgs parses a subcommand, its flags and its file arguments.
func parseArgs(args []string) (options, error) {
	if len(args) == 0 {
		return options{}, usageError("no subcommand")
	}
	o := options{cmd: args[0]}
	if !slices.ContainsFunc(kinds, func(k kind) bool { return k.cmds[o.cmd] != nil }) {
		return o, usagef("unknown subcommand %q", o.cmd)
	}
	fs := flag.NewFlagSet(o.cmd, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	l3 := "1,2,4,8"
	switch o.cmd {
	case "report":
		fs.BoolVar(&o.check, "check", false, "exit 1 on an operational-law violation or an empty ranking")
	case "top":
		fs.IntVar(&o.n, "n", 10, "number of traces to list")
	case "replay":
		fs.IntVar(&o.p, "p", 4, "processors")
		fs.StringVar(&l3, "l3", l3, "L3 capacities (MB) to sweep")
	}
	if err := fs.Parse(args[1:]); err != nil {
		return o, usageError(err.Error())
	}
	fs.Visit(func(f *flag.Flag) { o.set = append(o.set, f.Name) })
	o.files = fs.Args()
	want := 1
	if o.cmd == "diff" {
		want = 2
	}
	if len(o.files) != want || slices.Contains(o.files, "") {
		return o, usagef("%s takes %d file name(s), got %q", o.cmd, want, o.files)
	}
	if o.cmd != "replay" {
		return o, nil
	}
	if o.p < 1 {
		return o, usagef("-p must be positive, got %d", o.p)
	}
	var err error
	o.l3, err = parseL3List(l3)
	return o, err
}

// parseL3List parses the -l3 capacity list. Every entry must be a
// positive integer, blanks and duplicates are rejected — a sweep that
// silently skipped or repeated a capacity would misreport the study.
func parseL3List(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, usagef("-l3 list is empty")
	}
	fields := strings.Split(s, ",")
	sizes := make([]int, 0, len(fields))
	seen := make(map[int]bool, len(fields))
	for i, field := range fields {
		field = strings.TrimSpace(field)
		if field == "" {
			return nil, usagef("-l3 entry %d is empty (list %q)", i+1, s)
		}
		mb, err := strconv.Atoi(field)
		if err != nil {
			return nil, usagef("-l3 entry %d: %q is not an integer", i+1, field)
		}
		if mb <= 0 {
			return nil, usagef("-l3 entry %d: capacity must be positive, got %d", i+1, mb)
		}
		if seen[mb] {
			return nil, usagef("-l3 entry %d: duplicate capacity %d", i+1, mb)
		}
		seen[mb] = true
		sizes = append(sizes, mb)
	}
	return sizes, nil
}

// load reads path ("-" = stdin), works out its kind and decodes it.
func load(path string) (*kind, any, error) {
	var b []byte
	var err error
	if path == "-" {
		b, err = io.ReadAll(os.Stdin)
	} else {
		b, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, nil, err
	}
	k, err := detect(b)
	var doc any
	if err == nil {
		doc, err = k.decode(b)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return k, doc, nil
}

// detect works out the kind of a file's contents.
func detect(b []byte) (*kind, error) {
	for i, k := range kinds {
		if k.magic != "" && bytes.HasPrefix(b, []byte(k.magic)) {
			return &kinds[i], nil
		}
	}
	var top map[string]json.RawMessage
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&top); err != nil {
		return nil, fmt.Errorf("not an observer file: %w", err)
	}
	for i, k := range kinds {
		if k.key != "" && top[k.key] != nil {
			return &kinds[i], nil
		}
	}
	return nil, errors.New("not an observer file: no top-level frames, traces, stations or samples key")
}

// qstatsReport prints a report's observatory table; with -check it
// fails on any operational-law residual above 1e-6 or an empty
// ranking.
func qstatsReport(w io.Writer, o options, docs []any) error {
	r := docs[0].(*qstats.Report)
	if err := r.WriteText(w); err != nil || !o.check {
		return err
	}
	var viol []error
	for _, v := range r.Check(1e-6) {
		viol = append(viol, fmt.Errorf("law violation: %s", v))
	}
	if len(viol) == 0 && len(r.Ranking) == 0 {
		return errors.New("empty bottleneck ranking")
	}
	return errors.Join(viol...)
}

// rank prints a report's wait-demand ranking.
func rank(w io.Writer, _ options, docs []any) error {
	r := docs[0].(*qstats.Report)
	for i, name := range r.Ranking {
		var d float64
		for j := range r.Stations {
			if r.Stations[j].Name == name {
				d = r.Stations[j].WaitDemandMS
				break
			}
		}
		fmt.Fprintf(w, "%2d. %-10s Dwait=%.5fms\n", i+1, name, d)
	}
	bottleneck := r.Bottleneck
	if bottleneck == "" {
		bottleneck = "none"
	}
	_, err := fmt.Fprintf(w, "bottleneck: %s\n", bottleneck)
	return err
}

// replay replays the trace once per L3 capacity and prints each
// capacity's miss statistics.
func replay(w io.Writer, o options, docs []any) error {
	scale := system.DefaultTuning().Scale
	for _, mb := range o.l3 {
		r, err := trace.NewReader(bytes.NewReader(docs[0].([]byte)))
		if err != nil {
			return err
		}
		geo := cache.XeonGeometry()
		geo.L3Size = mb << 20
		geo = workload.ScaledGeometry(geo, scale)
		stats, err := trace.Replay(r, cache.NewDomain(geo, o.p, true))
		if err != nil {
			return fmt.Errorf("%s: %w", o.files[0], err)
		}
		fmt.Fprintf(w, "L3=%dMB refs=%d L3miss=%d ratio=%.4f coher=%d writebacks=%d\n",
			mb, stats.Refs, stats.L3Misses, stats.L3MissRatio(), stats.CoherMiss, stats.Writebacks)
	}
	return nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"odbscale/internal/campaign"
	"odbscale/internal/experiment"
	"odbscale/internal/qstats"
	"odbscale/internal/system"
	"odbscale/internal/telemetry"
	"odbscale/internal/txtrace"
)

// goldenProfile is the committed W=10, P=1 profile.
var goldenProfile = filepath.Join("..", "..", "testdata", "golden", "profile-w10-p1.json")

// capture runs W=10 for 100 measured transactions as odbrun runs a
// configuration, a one-point campaign, with the span tracer, the
// queueing collector and the timeline as its instruments and the
// reference trace streamed alongside, and returns the paths of the
// files they write, by kind. It then runs the same configuration once
// more with the queueing collector and an in-memory timeline, and
// writes timeline.csv next to the timeline's JSON file: that timeline
// as its CSV writer renders it, before any JSON round trip.
func capture(t *testing.T) map[string]string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"profile":  goldenProfile,
		"spans":    filepath.Join(dir, "spans.json"),
		"qstats":   filepath.Join(dir, "qstats.json"),
		"timeline": filepath.Join(dir, "timeline.json"),
		"trace":    filepath.Join(dir, "odb.trace"),
	}
	tf, err := os.Create(files["trace"])
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	spec := experiment.DefaultSpec([]int{10}, []int{1})
	spec.AutoTune, spec.Clients = false, 8
	spec.WarmupTxns, spec.MeasureTxns = 50, 100
	spec.Instruments = []campaign.Instrument{campaign.Spans(txtrace.Config{}), campaign.QueueStats(), campaign.Timeline(5)}
	var cfg system.Config
	res, err := (&campaign.Runner{Spec: spec, RunFunc: func(ctx context.Context, c system.Config, att []campaign.Attached) (system.Metrics, error) {
		cfg = c
		return campaign.DefaultRun(ctx, c, append(att, attach{system.WithTrace(tf, nil)}))
	}}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := res.Point(10, 1)
	for _, in := range spec.Instruments {
		var b bytes.Buffer
		if err := in.Write(&b, pt.Flight[in.Kind()]); err != nil {
			t.Fatal(err)
		}
		writeFile(t, files[in.Kind()], b.Bytes())
	}
	tl := telemetry.NewTimeline(5)
	if _, err := campaign.DefaultRun(context.Background(), cfg, []campaign.Attached{
		attach{system.WithQueueStats(qstats.NewCollector())}, attach{system.WithTimeline(tl)},
	}); err != nil {
		t.Fatal(err)
	}
	var cb bytes.Buffer
	if err := tl.Dump().WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "timeline.csv"), cb.Bytes())
	return files
}

// attach hands a run one option and leaves no payload.
type attach struct{ opt system.Option }

func (a attach) Option() system.Option { return a.opt }

func (attach) Finish(bool) (json.RawMessage, error) { return nil, nil }

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// odbreport runs one command line and returns its exit status, stdout
// and stderr.
func odbreport(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestDetectKinds(t *testing.T) {
	files := capture(t)
	for name, path := range files {
		k, _, err := load(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k.name != name {
			t.Errorf("%s detected as %s", path, k.name)
		}
	}
	for _, args := range [][]string{
		{"report", files["profile"]},
		{"folded", files["profile"]},
		{"text", files["profile"]},
		{"diff", files["profile"], files["profile"]},
		{"report", files["spans"]},
		{"export", files["spans"]},
		{"top", "-n", "3", files["spans"]},
		{"diff", files["spans"], files["spans"]},
		{"report", "-check", files["qstats"]},
		{"rank", files["qstats"]},
		{"diff", files["qstats"], files["qstats"]},
		{"report", files["timeline"]},
		{"replay", "-p", "1", "-l3", "1,4", files["trace"]},
	} {
		code, out, errOut := odbreport(args...)
		if code != 0 || out == "" {
			t.Errorf("odbreport %q: exit %d, %d bytes out, stderr %q", args, code, len(out), errOut)
		}
	}
	if code, out, _ := odbreport("replay", "-p", "1", "-l3", "1,4", files["trace"]); code != 0 ||
		strings.Count(out, "\n") != 2 || !strings.HasPrefix(out, "L3=1MB refs=") {
		t.Errorf("replay: exit %d, output %q; want one line per capacity", code, out)
	}
}

func TestStdin(t *testing.T) {
	f, err := os.Open(goldenProfile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdin := os.Stdin
	os.Stdin = f
	defer func() { os.Stdin = stdin }()
	_, want, _ := odbreport("report", goldenProfile)
	if code, got, errOut := odbreport("report", "-"); code != 0 || got != want {
		t.Fatalf("report - : exit %d, stderr %q; stdout differs from report FILE", code, errOut)
	}
}

func TestSubcommandOfAnotherKind(t *testing.T) {
	files := capture(t)
	for _, tc := range []struct {
		kind string
		args []string
	}{
		{"profile", []string{"rank", files["profile"]}},
		{"profile", []string{"report", "-check", files["profile"]}},
		{"spans", []string{"folded", files["spans"]}},
		{"spans", []string{"report", "-check", files["spans"]}},
		{"qstats", []string{"top", files["qstats"]}},
		{"qstats", []string{"replay", files["qstats"]}},
		{"timeline", []string{"top", files["timeline"]}},
		{"timeline", []string{"report", "-check", files["timeline"]}},
		{"trace", []string{"report", files["trace"]}},
		{"trace", []string{"diff", files["trace"], files["trace"]}},
	} {
		code, out, errOut := odbreport(tc.args...)
		if code != 2 || out != "" || !strings.Contains(errOut, "a "+tc.kind+" file") &&
			!strings.Contains(errOut, "to "+tc.kind+" files") {
			t.Errorf("odbreport %q: exit %d, stdout %q, stderr %q; want exit 2 naming %s",
				tc.args, code, out, errOut, tc.kind)
		}
	}
}

func TestDiffAcrossKinds(t *testing.T) {
	files := capture(t)
	for _, other := range []string{"qstats", "timeline"} {
		code, out, errOut := odbreport("diff", files["profile"], files[other])
		if code != 2 || out != "" || !strings.Contains(errOut, "a profile file") || !strings.Contains(errOut, "a "+other+" file") {
			t.Errorf("diff profile %s: exit %d, stdout %q, stderr %q; want exit 2 naming both kinds", other, code, out, errOut)
		}
	}
}

// TestTimelineReport holds odbreport report on a timeline file to the
// timeline's own CSV writer, byte for byte: the samples survive the JSON
// file unchanged, station columns included.
func TestTimelineReport(t *testing.T) {
	files := capture(t)
	want, err := os.ReadFile(filepath.Join(filepath.Dir(files["timeline"]), "timeline.csv"))
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut := odbreport("report", files["timeline"])
	if code != 0 || out != string(want) {
		t.Fatalf("report timeline: exit %d, stderr %q; stdout differs from the CSV writer:\n%s\nwant\n%s", code, errOut, out, want)
	}
	if !strings.Contains(out, "disk_util") || strings.Count(out, "\n") < 3 {
		t.Fatalf("report timeline: want station columns and several samples, got\n%s", out)
	}
}

func TestUnreadableFile(t *testing.T) {
	files := capture(t)
	dir := t.TempDir()
	golden, err := os.ReadFile(goldenProfile)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(files["trace"])
	if err != nil {
		t.Fatal(err)
	}
	unknown := filepath.Join(dir, "unknown.json")
	writeFile(t, unknown, []byte(`{"meta": {}, "rows": []}`))
	binary := filepath.Join(dir, "binary.dat")
	writeFile(t, binary, []byte("ODBTR0\x00\x01"))
	truncated := filepath.Join(dir, "truncated.json")
	writeFile(t, truncated, golden[:len(golden)/2])
	cut := filepath.Join(dir, "cut.trace")
	writeFile(t, cut, raw[:len(raw)-3])
	for _, args := range [][]string{
		{"report", unknown},
		{"report", binary},
		{"report", truncated},
		{"diff", goldenProfile, truncated},
		{"replay", "-p", "1", "-l3", "1", cut},
		{"report", filepath.Join(dir, "missing.json")},
	} {
		file := args[len(args)-1]
		code, out, errOut := odbreport(args...)
		if code != 1 || out != "" || !strings.Contains(errOut, file) {
			t.Errorf("odbreport %q: exit %d, stdout %q, stderr %q; want exit 1 naming %s", args, code, out, errOut, file)
		}
	}
}

func TestReportCheck(t *testing.T) {
	files := capture(t)
	if code, _, errOut := odbreport("report", "-check", files["qstats"]); code != 0 {
		t.Fatalf("report -check on a fresh capture: exit %d, stderr %q", code, errOut)
	}
	f, err := os.Open(files["qstats"])
	if err != nil {
		t.Fatal(err)
	}
	r, err := qstats.ReadReport(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	r.Stations[0].LittleResidual = 2e-6
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	edited := filepath.Join(t.TempDir(), "edited.json")
	writeFile(t, edited, b.Bytes())
	if code, out, _ := odbreport("report", edited); code != 0 || out == "" {
		t.Fatalf("report without -check: exit %d; want the table and exit 0", code)
	}
	code, out, errOut := odbreport("report", "-check", edited)
	if code != 1 || out == "" || !strings.Contains(errOut, "Little's law residual") {
		t.Fatalf("report -check: exit %d, stderr %q; want the table, a law violation and exit 1", code, errOut)
	}

	r.Stations[0].LittleResidual = 0
	r.Ranking = nil
	b.Reset()
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	writeFile(t, edited, b.Bytes())
	if code, _, errOut := odbreport("report", "-check", edited); code != 1 || !strings.Contains(errOut, "empty bottleneck ranking") {
		t.Fatalf("report -check on an empty ranking: exit %d, stderr %q; want exit 1", code, errOut)
	}
}

func TestParseL3List(t *testing.T) {
	valid := []struct {
		in   string
		want []int
	}{
		{"1,2,4,8", []int{1, 2, 4, 8}},
		{" 16 , 32 ", []int{16, 32}},
		{"4", []int{4}},
	}
	for _, tc := range valid {
		got, err := parseL3List(tc.in)
		if err != nil {
			t.Errorf("parseL3List(%q) = %v, want %v", tc.in, err, tc.want)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseL3List(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}

	invalid := []struct {
		in     string
		errHas string
	}{
		{"", "empty"},
		{"   ", "empty"},
		{"1,,4", "entry 2 is empty"},
		{"1,2,", "entry 3 is empty"},
		{"1,x,4", "not an integer"},
		{"1,0,4", "must be positive"},
		{"1,-2", "must be positive"},
		{"1,2,1", "duplicate capacity 1"},
	}
	for _, tc := range invalid {
		got, err := parseL3List(tc.in)
		if err == nil {
			t.Errorf("parseL3List(%q) = %v, want error containing %q", tc.in, got, tc.errHas)
			continue
		}
		if !strings.Contains(err.Error(), tc.errHas) {
			t.Errorf("parseL3List(%q) error = %q, want it to mention %q", tc.in, err, tc.errHas)
		}
	}
}

func TestParseArgs(t *testing.T) {
	valid := []struct {
		args []string
		want options
	}{
		{[]string{"replay", "-l3", "2,8", "-p", "1", "odb.trace"},
			options{cmd: "replay", files: []string{"odb.trace"}, set: []string{"l3", "p"}, p: 1, l3: []int{2, 8}}},
		{[]string{"replay", "odb.trace"},
			options{cmd: "replay", files: []string{"odb.trace"}, p: 4, l3: []int{1, 2, 4, 8}}},
		{[]string{"top", "d.json"}, options{cmd: "top", files: []string{"d.json"}, n: 10}},
		{[]string{"report", "-check", "q.json"},
			options{cmd: "report", files: []string{"q.json"}, set: []string{"check"}, check: true}},
		{[]string{"diff", "a.json", "-"}, options{cmd: "diff", files: []string{"a.json", "-"}}},
	}
	for _, tc := range valid {
		o, err := parseArgs(tc.args)
		if err != nil {
			t.Errorf("parseArgs(%q) = %v", tc.args, err)
			continue
		}
		if !reflect.DeepEqual(o, tc.want) {
			t.Errorf("parseArgs(%q) = %+v, want %+v", tc.args, o, tc.want)
		}
	}

	invalid := []struct {
		args   []string
		errHas string
	}{
		{[]string{"replay"}, "takes 1 file name"},
		{[]string{"replay", "-l3", "1,2", "-p", "4"}, "takes 1 file name"},
		{[]string{"replay", ""}, "takes 1 file name"},
		{[]string{"replay", "odb.trace", "extra"}, "takes 1 file name"},
		{[]string{"replay", "-l3", "1,0", "odb.trace"}, "must be positive"},
		{[]string{"replay", "-o", "x", "odb.trace"}, "not defined"},
		{[]string{"replay", "-p", "0", "odb.trace"}, "-p must be positive"},
		{[]string{"replay", "-replay", "odb.trace"}, "not defined"},
		{nil, "no subcommand"},
		{[]string{"bogus", "x.json"}, "unknown subcommand"},
		{[]string{"diff", "a.json"}, "takes 2 file name"},
		{[]string{"rank", "-n", "3", "q.json"}, "not defined"},
	}
	for _, tc := range invalid {
		_, err := parseArgs(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.errHas) {
			t.Errorf("parseArgs(%q) error = %v, want it to mention %q", tc.args, err, tc.errHas)
		}
		if !errors.As(err, new(usageError)) {
			t.Errorf("parseArgs(%q) error %v is not a usage error", tc.args, err)
		}
	}
}

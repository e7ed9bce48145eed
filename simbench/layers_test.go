package main

import (
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryInternalPackageHasOneLayer walks internal/ and requires every
// package to map to exactly one layer, and every mapped package to exist.
func TestEveryInternalPackageHasOneLayer(t *testing.T) {
	root := filepath.Join("..", "internal")
	found := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				found[filepath.ToSlash(rel)] = true
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("no packages found under internal/")
	}
	count := map[string]int{}
	for _, l := range layers {
		for _, p := range l.packages {
			count[p]++
		}
	}
	for pkg := range found {
		if count[pkg] != 1 {
			t.Errorf("internal/%s maps to %d layers, want exactly 1", pkg, count[pkg])
		}
	}
	for pkg := range count {
		if !found[pkg] {
			t.Errorf("layer map names internal/%s, which does not exist", pkg)
		}
	}
}

func TestLayerOfFunc(t *testing.T) {
	cases := map[string]string{
		"odbscale/internal/cache.(*Domain).Access":                         "cache",
		"odbscale/internal/engine/lsm.(*instance).Maintain":                "engine",
		"odbscale/internal/system.(*machine).start.func1":                  "system",
		"odbscale/internal/xrand.(*Zipf).Next":                             "xrand",
		"odbscale/internal/telemetry.New[go.shape.*odbscale/internal/x.T]": "other",
		"odbscale/internal/nosuch.F":                                       "",
		"runtime.mapaccess2_fast64":                                        "",
		"main.main":                                                        "",
	}
	for fn, want := range cases {
		if got := layerOfFunc(fn); got != want {
			t.Errorf("layerOfFunc(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestAttributionInnermostFrame checks that a sample is charged to its
// innermost simulator frame, and to gort when it has none.
func TestAttributionInnermostFrame(t *testing.T) {
	p := &cpuProfile{
		stacks: [][]string{
			{"runtime.mapaccess2_fast64", "odbscale/internal/buffercache.(*Cache).Lookup", "odbscale/internal/system.(*machine).runChunk"},
			{"odbscale/internal/xrand.(*Zipf).Next", "odbscale/internal/workload.(*Synth).Run"},
			{"runtime.gcBgMarkWorker"},
		},
		values: []int64{2, 1, 1},
	}
	shares := p.attribute()
	want := map[string]float64{"buffercache": 0.5, "xrand": 0.25, gortLayer: 0.25}
	for layer, share := range shares {
		if math.Abs(share-want[layer]) > 1e-12 {
			t.Errorf("%s share = %v, want %v", layer, share, want[layer])
		}
	}
}

// TestProfileFixtureRowsSumToTotal decodes a CPU profile recorded from a
// short cached run and checks that the layer rows sum to the traced
// total and put the synthesizer stack on top.
func TestProfileFixtureRowsSumToTotal(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "cpu-cached.pb.gz"))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.values) < 100 {
		t.Fatalf("fixture decodes to %d samples", len(prof.values))
	}
	const total = 300_000.0
	rows := layerRows(prof, total)
	if len(rows) != len(layers)+1 {
		t.Errorf("%d rows, want one per layer plus gort (%d)", len(rows), len(layers)+1)
	}
	sum := 0.0
	for _, v := range rows {
		sum += v
	}
	if math.Abs(sum-total) > 1e-6*total {
		t.Errorf("rows sum to %v, want %v", sum, total)
	}
	synth := rows["workload.ns_per_txn"] + rows["xrand.ns_per_txn"] + rows["cache.ns_per_txn"] + rows["cpu.ns_per_txn"]
	if synth < total/2 {
		t.Errorf("synthesizer stack is %.0f of %.0f ns/txn on cached; want most of it", synth, total)
	}
}

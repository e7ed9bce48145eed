package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// endToEndMetric is one end_to_end entry of BENCHMARK.json.
type endToEndMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// minPairs is the fewest base/head pairs a claimed improvement needs.
const minPairs = 10

// runFile is one saved benchmark run: its host line and result line.
type runFile struct {
	host   hostInfo
	result result
}

// readRuns loads every *.json result file in dir, skipping traced runs,
// which carry per-layer metrics only.
func readRuns(dir string) ([]runFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []runFile
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf runFile
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		for _, line := range lines {
			var h struct {
				Host *hostInfo `json:"host"`
			}
			if json.Unmarshal([]byte(line), &h) == nil && h.Host != nil {
				rf.host = *h.Host
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rf.result); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", path, err)
		}
		if rf.host.Workload == "" {
			return nil, fmt.Errorf("%s: no host line", path)
		}
		if rf.host.Trace == 0 {
			out = append(out, rf)
		}
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same "exclusive" interpolation as Python's
// statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// side is one commit's values of one metric on one workload, by seed.
type side struct {
	values []float64
	bySeed map[int64]float64
}

func collect(runs []runFile, workloadName, metricName string) side {
	s := side{bySeed: map[int64]float64{}}
	for _, r := range runs {
		if r.host.Workload != workloadName {
			continue
		}
		if m, ok := r.result.Metrics[metricName]; ok {
			s.values = append(s.values, m.Value)
			s.bySeed[r.host.Seed] = m.Value
		}
	}
	return s
}

// verdict applies the benchmark's rule to one workload × metric:
//   - improved: head wins at least 90% of the seed-matched pairs (and at
//     least minPairs were run), and the medians differ by more than the
//     base's own interquartile range;
//   - worse: head's median is worse than base's by more than the bound;
//   - unresolved: the base's own spread exceeds the bound, unless every
//     head run beats every base run;
//   - no worse: otherwise.
func verdict(m endToEndMetric, base, head side) (string, int, int) {
	sign := 1.0 // positive when head is better
	if m.Better == "higher" {
		sign = -1
	}
	bq1, bmed, bq3 := quartiles(base.values)
	_, hmed, _ := quartiles(head.values)
	wins, pairs := 0, 0
	seeds := make([]int64, 0, len(base.bySeed))
	for seed := range base.bySeed {
		seeds = append(seeds, seed)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, seed := range seeds {
		h, ok := head.bySeed[seed]
		if !ok {
			continue
		}
		pairs++
		if sign*(base.bySeed[seed]-h) > 0 {
			wins++
		}
	}
	gain := sign * (bmed - hmed) // > 0 when head is better
	allBetter := true
	for _, b := range base.values {
		for _, h := range head.values {
			if sign*(b-h) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case pairs >= minPairs && wins*10 >= pairs*9 && gain > bq3-bq1:
		return "improved", wins, pairs
	case -gain > m.Bound*bmed:
		return "worse", wins, pairs
	case (bq3-bq1) > m.Bound*bmed && !allBetter:
		return "unresolved", wins, pairs
	}
	return "no worse", wins, pairs
}

// compare prints base against head for every workload × end-to-end
// metric and reports false when any verdict is "worse".
func compare(w io.Writer, benchPath, baseDir, headDir string) (bool, error) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var bench struct {
		EndToEnd []endToEndMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	base, err := readRuns(baseDir)
	if err != nil {
		return false, err
	}
	head, err := readRuns(headDir)
	if err != nil {
		return false, err
	}
	hosts := map[string]bool{}
	for _, r := range append(append([]runFile(nil), base...), head...) {
		hosts[fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s", r.host.CPUModel, r.host.NumCPU, r.host.GOMAXPROCS, r.host.GoVersion)] = true
	}
	hostList := make([]string, 0, len(hosts))
	for h := range hosts {
		hostList = append(hostList, h)
	}
	sort.Strings(hostList)
	for _, h := range hostList {
		fmt.Fprintln(w, "host:", h)
	}
	if len(hostList) > 1 {
		fmt.Fprintln(w, "warning: the runs come from more than one host or toolchain")
	}

	ok := true
	fmt.Fprintf(w, "%-8s %-16s %30s %30s %8s %7s  %s\n", "workload", "metric", "base median [q1 q3]", "head median [q1 q3]", "delta", "won", "verdict")
	for _, wl := range workloads {
		for _, m := range bench.EndToEnd {
			b, h := collect(base, wl.name, m.Name), collect(head, wl.name, m.Name)
			if len(b.values) == 0 || len(h.values) == 0 {
				continue
			}
			v, wins, pairs := verdict(m, b, h)
			if v == "worse" {
				ok = false
			}
			bq1, bmed, bq3 := quartiles(b.values)
			hq1, hmed, hq3 := quartiles(h.values)
			fmt.Fprintf(w, "%-8s %-16s %30s %30s %+7.1f%% %3d/%-3d  %s\n", wl.name, m.Name,
				fmt.Sprintf("%.6g [%.6g %.6g]", bmed, bq1, bq3),
				fmt.Sprintf("%.6g [%.6g %.6g]", hmed, hq1, hq3),
				100*(hmed-bmed)/bmed, wins, pairs, v)
		}
	}
	return ok, nil
}

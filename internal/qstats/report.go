package qstats

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Meta identifies the run a report describes.
type Meta struct {
	Label      string `json:"label,omitempty"`
	Engine     string `json:"engine,omitempty"`
	Warehouses int    `json:"warehouses,omitempty"`
	Clients    int    `json:"clients,omitempty"`
	Processors int    `json:"processors,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
}

// Background carries the absorbed maintenance counters the stations do
// not model as visits: the buffer cache's DB-writer and hit ledger,
// the lock manager's acquire/conflict counts, the engine's flush,
// compaction and stall counts, and the log-writer volume. They are
// read from the component statistics at report time, so they cost
// nothing on the hot path.
type Background struct {
	BufferGets    uint64 `json:"buffer_gets"`
	BufferHits    uint64 `json:"buffer_hits"`
	LockAcquires  uint64 `json:"lock_acquires"`
	LockConflicts uint64 `json:"lock_conflicts"`
	LogWrites     uint64 `json:"log_writes"`
	Flushes       uint64 `json:"flushes"`
	Compactions   uint64 `json:"compactions"`
	WriteStalls   uint64 `json:"write_stalls"`
}

// StationMetrics is one station's derived observatory row. Times are
// milliseconds of simulated time; demands are per committed
// transaction.
type StationMetrics struct {
	Name    string `json:"name"`
	Role    string `json:"role"`
	Servers int    `json:"servers"` // 0 = delay center

	Arrivals    uint64 `json:"arrivals"`
	Completions uint64 `json:"completions"`

	Utilization      float64 `json:"utilization"`        // busy/(T·m); 0 for delay centers
	ThroughputPerSec float64 `json:"throughput_per_sec"` // completions/T
	ServiceMS        float64 `json:"service_ms"`         // mean service per visit
	WaitMS           float64 `json:"wait_ms"`            // mean wait per visit
	ResidenceMS      float64 `json:"residence_ms"`       // mean wait+service per visit
	QueueLen         float64 `json:"queue_len"`          // time-averaged customers present

	ServiceDemandMS float64 `json:"service_demand_ms"` // busy per commit
	WaitDemandMS    float64 `json:"wait_demand_ms"`    // wait per commit (ranking key)

	// LittleResidual is |N − X·R| / N and UtilResidual is
	// |U − X·S/m| / U, both computed from the same accumulators through
	// different expression orders — the operational-law self-audit that
	// the bookkeeping is internally consistent. Float rounding keeps
	// them far below the 1e-6 tolerance unless an accumulator is fed
	// inconsistently.
	LittleResidual float64 `json:"little_residual"`
	UtilResidual   float64 `json:"util_residual"`
}

// Report is the observatory's derived output for one measurement
// window.
type Report struct {
	Meta      Meta    `json:"meta"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Commits   uint64  `json:"commits"`
	TPS       float64 `json:"tps"`

	Stations   []StationMetrics `json:"stations"`
	Background Background       `json:"background"`

	// Ranking lists the resource stations (the CPU driver excluded) by
	// falling wait demand per commit — the queueing delay each center
	// imposes on a transaction. Bottleneck is the top-ranked station
	// with nonzero wait demand; empty when nothing queues.
	Ranking    []string `json:"ranking"`
	Bottleneck string   `json:"bottleneck,omitempty"`

	// Saturating names the servered resource station with the highest
	// utilization; Headroom is 1/U for it — how far throughput can grow
	// before that hardware saturates. Zero utilization reports
	// headroom 0, meaning "no resource limit in sight".
	Saturating string  `json:"saturating,omitempty"`
	Headroom   float64 `json:"headroom,omitempty"`
}

// Input is everything Build needs: the raw station accumulators, the
// measurement window, the clock rate, the commit count and the
// absorbed background counters.
type Input struct {
	Meta          Meta
	ElapsedCycles float64
	CyclesPerMS   float64
	Commits       uint64
	Counts        [NumStations]Counts
	Servers       [NumStations]int
	Background    Background
}

// Build derives a report from raw accumulators. It runs once, at run
// end, on the simulation goroutine. The package is under the hot-path
// allocation rule, so it keeps the same discipline: fixed-size slices
// filled by index, no escaping composite literals, no interface boxing.
func Build(in *Input) *Report {
	r := new(Report)
	r.Meta = in.Meta
	r.Background = in.Background
	r.Commits = in.Commits
	t := in.ElapsedCycles
	cpms := in.CyclesPerMS
	if cpms > 0 {
		r.ElapsedMS = t / cpms
	}
	if r.ElapsedMS > 0 {
		r.TPS = float64(in.Commits) / (r.ElapsedMS / 1e3)
	}

	stations := make([]StationMetrics, NumStations)
	for id := 0; id < NumStations; id++ {
		cn := in.Counts[id]
		sm := &stations[id]
		sm.Name = stationNames[id]
		sm.Role = Role(id)
		sm.Servers = in.Servers[id]
		sm.Arrivals = cn.Arrivals
		sm.Completions = cn.Completions

		comp := float64(cn.Completions)
		if t > 0 {
			sm.ThroughputPerSec = comp / (t / (cpms * 1e3))
			sm.QueueLen = (cn.BusyCycles + cn.WaitCycles) / t
		}
		if comp > 0 && cpms > 0 {
			sm.ServiceMS = cn.BusyCycles / comp / cpms
			sm.WaitMS = cn.WaitCycles / comp / cpms
			sm.ResidenceMS = (cn.BusyCycles + cn.WaitCycles) / comp / cpms
		}
		if in.Commits > 0 && cpms > 0 {
			sm.ServiceDemandMS = cn.BusyCycles / float64(in.Commits) / cpms
			sm.WaitDemandMS = cn.WaitCycles / float64(in.Commits) / cpms
		}
		if sm.Servers > 0 && t > 0 {
			sm.Utilization = cn.BusyCycles / (t * float64(sm.Servers))
		}

		// Little's law: N = X·R, both sides from the same accumulators
		// in different float orders.
		if t > 0 && comp > 0 {
			n := (cn.BusyCycles + cn.WaitCycles) / t
			xr := (comp / t) * ((cn.BusyCycles + cn.WaitCycles) / comp)
			if n > 0 {
				sm.LittleResidual = math.Abs(n-xr) / n
			}
		}
		// Utilization law: U = X·S/m, servered stations only.
		if sm.Servers > 0 && t > 0 && comp > 0 {
			u := cn.BusyCycles / (t * float64(sm.Servers))
			xs := (comp / t) * (cn.BusyCycles / comp) / float64(sm.Servers)
			if u > 0 {
				sm.UtilResidual = math.Abs(u-xs) / u
			}
		}
	}
	r.Stations = stations

	// Rank the resource stations by wait demand per commit: the
	// queueing delay a center imposes on a transaction. Ties (all-zero
	// cached regions) break by station order, keeping output
	// deterministic.
	var order [NumStations]int
	n := 0
	for id := 0; id < NumStations; id++ {
		if Role(id) == RoleResource {
			order[n] = id
			n++
		}
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && stations[order[j]].WaitDemandMS > stations[order[j-1]].WaitDemandMS; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	ranking := make([]string, n)
	for i := 0; i < n; i++ {
		ranking[i] = stationNames[order[i]]
	}
	r.Ranking = ranking
	if n > 0 && stations[order[0]].WaitDemandMS > 0 {
		r.Bottleneck = stations[order[0]].Name
	}

	// The saturating station: highest utilization among the servered
	// resource stations (bus, disks, log). Its 1/U is the headroom
	// before hardware saturation caps throughput.
	maxU := 0.0
	sat := -1
	for id := 0; id < NumStations; id++ {
		if Role(id) != RoleResource || in.Servers[id] <= 0 {
			continue
		}
		if u := stations[id].Utilization; u > maxU {
			maxU = u
			sat = id
		}
	}
	if sat >= 0 && maxU > 0 {
		r.Saturating = stationNames[sat]
		r.Headroom = 1 / maxU
	}
	return r
}

// Check audits the operational laws and accumulator invariants against
// tol (relative). It returns one description per violation; an empty
// slice means the bookkeeping is consistent.
func (r *Report) Check(tol float64) []string {
	var out []string
	for i := range r.Stations {
		s := &r.Stations[i]
		if s.LittleResidual > tol {
			out = append(out, fmt.Sprintf("%s: Little's law residual %.3g exceeds %.3g", s.Name, s.LittleResidual, tol))
		}
		if s.UtilResidual > tol {
			out = append(out, fmt.Sprintf("%s: utilization law residual %.3g exceeds %.3g", s.Name, s.UtilResidual, tol))
		}
		if s.Completions > s.Arrivals {
			out = append(out, fmt.Sprintf("%s: %d completions exceed %d arrivals", s.Name, s.Completions, s.Arrivals))
		}
		if s.Servers > 0 && s.Utilization > 1+tol {
			out = append(out, fmt.Sprintf("%s: utilization %.4f exceeds 1", s.Name, s.Utilization))
		}
	}
	return out
}

// WriteJSON renders the report as a JSON document.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// ReadReport decodes a report written by WriteJSON.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("qstats: decoding report: %w", err)
	}
	return &r, nil
}

// WriteText renders the observatory table: one row per station, the
// law-audit verdict, and the bottleneck/headroom summary.
func (r *Report) WriteText(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("queueing observatory: %s W=%d C=%d P=%d  elapsed=%.1fms commits=%d tps=%.0f\n",
		engineLabel(r.Meta.Engine), r.Meta.Warehouses, r.Meta.Clients, r.Meta.Processors,
		r.ElapsedMS, r.Commits, r.TPS)
	ew.printf("%-10s %-8s %3s %8s %10s %9s %9s %8s %10s %10s\n",
		"station", "role", "m", "util", "X/s", "S ms", "W ms", "N", "Dsvc ms", "Dwait ms")
	for i := range r.Stations {
		s := &r.Stations[i]
		util := "-"
		if s.Servers > 0 {
			util = fmt.Sprintf("%.4f", s.Utilization)
		}
		ew.printf("%-10s %-8s %3d %8s %10.1f %9.4f %9.4f %8.3f %10.5f %10.5f\n",
			s.Name, s.Role, s.Servers, util, s.ThroughputPerSec,
			s.ServiceMS, s.WaitMS, s.QueueLen, s.ServiceDemandMS, s.WaitDemandMS)
	}
	if viol := r.Check(1e-6); len(viol) == 0 {
		ew.printf("operational laws: OK (N=X·R and U=X·S within 1e-6 at every station)\n")
	} else {
		for _, v := range viol {
			ew.printf("operational laws: VIOLATION %s\n", v)
		}
	}
	if r.Bottleneck != "" {
		ew.printf("bottleneck: %s (ranking: %s)\n", r.Bottleneck, joinNames(r.Ranking))
	} else {
		ew.printf("bottleneck: none (no station imposes queueing delay)\n")
	}
	if r.Saturating != "" {
		ew.printf("saturating: %s headroom=%.1fx\n", r.Saturating, r.Headroom)
	} else {
		ew.printf("saturating: none (all servered resources idle)\n")
	}
	return ew.err
}

// WriteDiff renders the per-station demand movement between two
// reports — the bottleneck-shift view across a knob change.
func WriteDiff(w io.Writer, a, b *Report) error {
	ew := &errWriter{w: w}
	ew.printf("qstats diff: %s -> %s\n", labelOf(a), labelOf(b))
	ew.printf("%-10s %12s %12s %12s   %12s %12s %12s\n",
		"station", "Dwait_a", "Dwait_b", "delta", "Dsvc_a", "Dsvc_b", "delta")
	for i := range a.Stations {
		sa := &a.Stations[i]
		var sb *StationMetrics
		for j := range b.Stations {
			if b.Stations[j].Name == sa.Name {
				sb = &b.Stations[j]
				break
			}
		}
		if sb == nil {
			continue
		}
		ew.printf("%-10s %12.5f %12.5f %+12.5f   %12.5f %12.5f %+12.5f\n",
			sa.Name, sa.WaitDemandMS, sb.WaitDemandMS, sb.WaitDemandMS-sa.WaitDemandMS,
			sa.ServiceDemandMS, sb.ServiceDemandMS, sb.ServiceDemandMS-sa.ServiceDemandMS)
	}
	ew.printf("bottleneck: %s -> %s\n", orNone(a.Bottleneck), orNone(b.Bottleneck))
	return ew.err
}

// errWriter remembers the first write error so call sites stay linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

func engineLabel(name string) string {
	if name == "" {
		return "run"
	}
	return name
}

func labelOf(r *Report) string {
	if r.Meta.Label != "" {
		return r.Meta.Label
	}
	return fmt.Sprintf("%s-w%d-p%d", engineLabel(r.Meta.Engine), r.Meta.Warehouses, r.Meta.Processors)
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " > "
		}
		out += n
	}
	return out
}

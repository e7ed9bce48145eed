package txtrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"odbscale/internal/odb"
	"odbscale/internal/sim"
)

// TypeStat summarizes every measured transaction of one type — not
// just the sampled ones — so the wait-state report's shares and
// quantiles cover the full population.
type TypeStat struct {
	Type  string `json:"type"`
	Count uint64 `json:"count"`
	// Latency quantiles in cycles, from the per-type log-linear
	// histogram (≤12.5% relative bucket width).
	P50 float64 `json:"p50Cycles"`
	P95 float64 `json:"p95Cycles"`
	P99 float64 `json:"p99Cycles"`
	// Sum is the component-wise total over every measured transaction;
	// SumLatency is the matching latency total, so mean shares are
	// exact ratios.
	Sum        Breakdown `json:"sum"`
	SumLatency sim.Time  `json:"sumLatency"`
}

// Dump is a self-contained snapshot of a tracer: run identity, per-type
// aggregates, and the retained traces sorted by commit order. It is the
// odbrun -spans file, each odbsweep -spans file, and the campaign
// checkpoint's per-point span record.
type Dump struct {
	Meta   Meta       `json:"meta"`
	Types  []TypeStat `json:"types"`
	Traces []Trace    `json:"traces"`
}

// Dump snapshots the tracer. The traces are deep copies — the tracer's
// pooled memory is never aliased — deduplicated across the head and
// tail sample sets and sorted by commit order.
func (t *Tracer) Dump() *Dump {
	t.mu.Lock()
	defer t.mu.Unlock()

	d := &Dump{Meta: t.meta}
	d.Meta.MeasuredTxns = t.seq

	d.Types = make([]TypeStat, 0, len(t.types))
	for i := range t.types {
		ta := &t.types[i]
		d.Types = append(d.Types, TypeStat{
			Type:       odb.TxnType(i).String(),
			Count:      ta.count,
			P50:        ta.hist.Quantile(0.50),
			P95:        ta.hist.Quantile(0.95),
			P99:        ta.hist.Quantile(0.99),
			Sum:        ta.sum,
			SumLatency: ta.sumLatency,
		})
	}

	retained := make([]*Trace, 0, len(t.heads)+odb.NumTxnTypes*t.cfg.TailK)
	retained = append(retained, t.heads...)
	for i := range t.types {
		for _, tr := range t.types[i].tail {
			if !tr.head { // already in the head set
				retained = append(retained, tr)
			}
		}
	}
	sort.Slice(retained, func(i, j int) bool { return retained[i].Seq < retained[j].Seq })

	d.Traces = make([]Trace, len(retained))
	for i, tr := range retained {
		d.Traces[i] = *tr
		d.Traces[i].Segs = make([]Segment, len(tr.Segs))
		copy(d.Traces[i].Segs, tr.Segs)
		d.Traces[i].head = false
		d.Traces[i].tail = false
	}
	return d
}

// Write serializes the dump as indented JSON.
func (d *Dump) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("txtrace: encoding dump: %w", err)
	}
	return nil
}

// ReadDump parses a Write result.
func ReadDump(r io.Reader) (*Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("txtrace: decoding dump: %w", err)
	}
	return &d, nil
}

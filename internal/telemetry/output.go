package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// LatencySummary is the JSON-friendly digest of one latency histogram;
// quantile values are simulated microseconds.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
	MinUS  uint64  `json:"min_us"`
	MaxUS  uint64  `json:"max_us"`
	// Encoded is the histogram's wire form (base64 via encoding/json),
	// from which DecodeHistogram rebuilds the buckets.
	Encoded []byte `json:"encoded,omitempty"`
}

// Summarize digests a histogram. Quantiles of an empty histogram
// report 0 (QuantileOK keeps the zero distinguishable from data at the
// call sites that need it; the digest's Count already disambiguates).
func Summarize(h *Histogram, encoded bool) LatencySummary {
	p50, _ := h.QuantileOK(0.50)
	p95, _ := h.QuantileOK(0.95)
	p99, _ := h.QuantileOK(0.99)
	s := LatencySummary{
		Count:  h.Count(),
		MeanUS: h.Mean(),
		P50US:  p50,
		P95US:  p95,
		P99US:  p99,
		MinUS:  h.Min(),
		MaxUS:  h.Max(),
	}
	if encoded {
		s.Encoded = h.Encode()
	}
	return s
}

// SummarizeAll digests a histogram set keyed by transaction type.
func SummarizeAll(hists map[string]*Histogram, encoded bool) map[string]LatencySummary {
	out := make(map[string]LatencySummary, len(hists))
	for name, h := range hists {
		out[name] = Summarize(h, encoded)
	}
	return out
}

// timelineDump is the JSON form of a timeline dump.
type timelineDump struct {
	Dropped uint64   `json:"dropped"`
	Samples []Sample `json:"samples"`
}

// WriteTimeline renders the retained samples as a JSON document.
func (r *Recorder) WriteTimeline(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(timelineDump{Dropped: r.TimelineDropped(), Samples: r.Timeline()})
}

// WriteTimelineCSV renders the retained samples as a CSV table, one row
// per sample. The column set is derived from the first sample: the
// scalar fields, one cpu<N>_util column per CPU, and — when the run
// attached the queueing observatory — four columns per station. Every
// retained sample of one run has the same shape, so the header is
// stable across the dump.
func (r *Recorder) WriteTimelineCSV(w io.Writer) error {
	samples := r.Timeline()
	var b strings.Builder
	b.WriteString("t,measuring,tps,cpi,user_ipx,os_ipx,l2_mpi,l3_mpi,buffer_hit,write_amp,read_amp,bus_util,run_queue,io_in_flight,space_amp,txns")
	if len(samples) > 0 {
		for i := range samples[0].CPUUtil {
			fmt.Fprintf(&b, ",cpu%d_util", i)
		}
		for _, st := range samples[0].Stations {
			fmt.Fprintf(&b, ",%s_util,%s_queue_len,%s_wait_ms,%s_xps", st.Name, st.Name, st.Name, st.Name)
		}
	}
	b.WriteByte('\n')
	for _, s := range samples {
		measuring := "0"
		if s.Measuring {
			measuring = "1"
		}
		fmt.Fprintf(&b, "%g,%s,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%d,%d,%g,%d",
			s.SimSeconds, measuring, s.TPS, s.CPI, s.UserIPX, s.OSIPX,
			s.L2MPI, s.L3MPI, s.BufferHit, s.WriteAmp, s.ReadAmp,
			s.BusUtil, s.RunQueue, s.IOInFlight, s.SpaceAmp, s.Txns)
		for _, u := range s.CPUUtil {
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(u, 'g', -1, 64))
		}
		for _, st := range s.Stations {
			fmt.Fprintf(&b, ",%g,%g,%g,%g", st.Util, st.QueueLen, st.WaitMS, st.Xps)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

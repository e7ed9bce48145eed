package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// TimelineDump is a timeline's file form: the run's label and phase
// spans, how many samples the ring evicted, and the retained samples
// oldest-first.
type TimelineDump struct {
	Label   string      `json:"label"`
	Phases  []PhaseSpan `json:"phases"`
	Dropped uint64      `json:"dropped"`
	Samples []Sample    `json:"samples"`
}

// Write renders the dump as one JSON document.
func (d *TimelineDump) Write(w io.Writer) error { return json.NewEncoder(w).Encode(d) }

// ReadTimeline parses a Write result.
func ReadTimeline(r io.Reader) (*TimelineDump, error) {
	var d TimelineDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("telemetry: decoding timeline: %w", err)
	}
	return &d, nil
}

// WriteCSV renders the samples as a CSV table, one row per sample. The
// column set is derived from the first sample: the scalar fields, one
// cpu<N>_util column per CPU, and — when the run attached the queueing
// observatory — four columns per station. Every retained sample of one
// run has the same shape, so the header is stable across the dump.
func (d *TimelineDump) WriteCSV(w io.Writer) error {
	samples := d.Samples
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

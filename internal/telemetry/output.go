package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

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

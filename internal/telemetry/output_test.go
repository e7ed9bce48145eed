package telemetry

import (
	"strings"
	"testing"
)

// TestWriteTimelineCSVGolden pins the CSV exposition byte for byte: the
// header is derived from the first sample's shape (per-CPU columns,
// then four columns per station when the queueing observatory rode
// along), and %g keeps values round-trippable. Downstream spreadsheet
// and plotting pipelines key on these exact column names.
func TestWriteTimelineCSVGolden(t *testing.T) {
	tl := NewTimeline(100)
	tl.Push(Sample{
		SimSeconds: 0.1, Measuring: false,
		TPS: 480, CPI: 2.5, UserIPX: 1.5e6, OSIPX: 2e5,
		L2MPI: 0.01, L3MPI: 0.0025, BufferHit: 0.96,
		WriteAmp: 1.5, ReadAmp: 0.25,
		CPUUtil: []float64{0.75, 0.5},
		BusUtil: 0.125, RunQueue: 3, IOInFlight: 2, SpaceAmp: 1.125, Txns: 48,
		Stations: []StationSample{
			{Name: "cpu", Util: 0.75, QueueLen: 2.5, WaitMS: 1.25, Xps: 960},
			{Name: "disk", Util: 0.25, QueueLen: 0.5, WaitMS: 4.5, Xps: 120},
		},
	})
	tl.Push(Sample{
		SimSeconds: 0.2, Measuring: true,
		TPS: 500, CPI: 2.25, UserIPX: 1.25e6, OSIPX: 1.5e5,
		L2MPI: 0.0125, L3MPI: 0.003125, BufferHit: 0.975,
		WriteAmp: 1.25, ReadAmp: 0.5,
		CPUUtil: []float64{1, 0.875},
		BusUtil: 0.25, RunQueue: 1, IOInFlight: 0, SpaceAmp: 1.25, Txns: 98,
		Stations: []StationSample{
			{Name: "cpu", Util: 1, QueueLen: 3.5, WaitMS: 2.5, Xps: 1000},
			{Name: "disk", Util: 0.125, QueueLen: 0.25, WaitMS: 3.75, Xps: 60},
		},
	})

	const want = "t,measuring,tps,cpi,user_ipx,os_ipx,l2_mpi,l3_mpi,buffer_hit,write_amp,read_amp,bus_util,run_queue,io_in_flight,space_amp,txns" +
		",cpu0_util,cpu1_util" +
		",cpu_util,cpu_queue_len,cpu_wait_ms,cpu_xps" +
		",disk_util,disk_queue_len,disk_wait_ms,disk_xps\n" +
		"0.1,0,480,2.5,1.5e+06,200000,0.01,0.0025,0.96,1.5,0.25,0.125,3,2,1.125,48,0.75,0.5,0.75,2.5,1.25,960,0.25,0.5,4.5,120\n" +
		"0.2,1,500,2.25,1.25e+06,150000,0.0125,0.003125,0.975,1.25,0.5,0.25,1,0,1.25,98,1,0.875,1,3.5,2.5,1000,0.125,0.25,3.75,60\n"

	var b strings.Builder
	if err := tl.Dump().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Errorf("CSV exposition drifted:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestWriteTimelineCSVEmpty keeps the zero-sample dump parseable: just
// the scalar header, no per-CPU or station columns to derive.
func TestWriteTimelineCSVEmpty(t *testing.T) {
	tl := NewTimeline(0)
	var b strings.Builder
	if err := tl.Dump().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "t,measuring,tps,cpi,user_ipx,os_ipx,l2_mpi,l3_mpi,buffer_hit,write_amp,read_amp,bus_util,run_queue,io_in_flight,space_amp,txns\n"
	if b.String() != want {
		t.Errorf("empty dump = %q, want header only", b.String())
	}
}

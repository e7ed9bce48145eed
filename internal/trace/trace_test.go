package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"odbscale/internal/bus"
	"odbscale/internal/cache"
	"odbscale/internal/workload"
	"odbscale/internal/xrand"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{CPU: 0, Kind: cache.Fetch, Addr: 0x1000},
		{CPU: 3, Kind: cache.Store, Addr: 0xdeadbeef},
		{CPU: 1, Kind: cache.Load, Addr: 1 << 40},
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Fatalf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(cpu uint8, kind uint8, addr uint64) bool {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		rec := Record{CPU: cpu, Kind: Kind(kind % 3), Addr: addr}
		w.Write(rec)
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.Next()
		return err == nil && got == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBadHeaderRejected(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Record{Addr: 1})
	w.Write(Record{Addr: 2})
	w.Flush()
	data := buf.Bytes()[:buf.Len()-3] // chop mid-record
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	_, err = r.Next()
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("want truncation error, got %v", err)
	}
	// The error names the failing record, carries its byte offset, and
	// wraps the underlying cause for errors.Is chains.
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncation error does not wrap io.ErrUnexpectedEOF: %v", err)
	}
	for _, want := range []string{"record 1", "offset 16"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// captureTrace records the synthesizer's reference stream for some chunks.
func captureTrace(t *testing.T, n int) []byte {
	t.Helper()
	const scale = 64
	g := workload.ScaledGeometry(cache.XeonGeometry(), scale)
	d := cache.NewDomain(g, 2, true)
	b := bus.New(bus.DefaultConfig(), scale)
	synth := workload.New(workload.DefaultConfig(scale), d, b, xrand.New(9))

	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	synth.SetTap(func(cpu int, addr cache.Addr, kind cache.Kind) {
		if err := w.Write(Record{CPU: uint8(cpu), Kind: kind, Addr: uint64(addr)}); err != nil {
			t.Fatal(err)
		}
	})
	for i := 0; i < n; i++ {
		synth.Run(workload.ChunkSpec{CPU: i % 2, ProcID: i % 4, Instr: 100_000})
	}
	if w.Count() == 0 {
		t.Fatal("tap captured nothing")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReplayAgainstGeometries(t *testing.T) {
	data := captureTrace(t, 600)

	replay := func(l3 int) ReplayStats {
		g := workload.ScaledGeometry(cache.XeonGeometry(), 64)
		g.L3Size = l3
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		s, err := Replay(r, cache.NewDomain(g, 2, true))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	small := replay((1 << 20) / 64) // scaled 1 MB
	big := replay((4 << 20) / 64)   // scaled 4 MB
	if small.Refs != big.Refs || small.Refs == 0 {
		t.Fatalf("replay lengths differ: %d vs %d", small.Refs, big.Refs)
	}
	if big.L3Misses >= small.L3Misses {
		t.Fatalf("bigger L3 missed more on same trace: %d >= %d", big.L3Misses, small.L3Misses)
	}
	if small.L3MissRatio() <= 0 {
		t.Fatal("no misses recorded")
	}
}

func TestReplayCPUOutOfRange(t *testing.T) {
	data := captureTrace(t, 50)
	g := workload.ScaledGeometry(cache.XeonGeometry(), 64)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(r, cache.NewDomain(g, 1, true)); err == nil {
		t.Fatal("trace with CPU 1 replayed on a 1-CPU domain")
	}
}

func TestReplayDeterministic(t *testing.T) {
	data := captureTrace(t, 100)
	run := func() ReplayStats {
		g := workload.ScaledGeometry(cache.XeonGeometry(), 64)
		r, _ := NewReader(bytes.NewReader(data))
		s, err := Replay(r, cache.NewDomain(g, 2, true))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if run() != run() {
		t.Fatal("replay not deterministic")
	}
}

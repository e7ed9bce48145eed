// Package trace captures the reference stream the workload synthesizer
// feeds into the cache hierarchy and replays it against alternative cache
// geometries — the classic trace-driven methodology of the memory-system
// studies the paper builds on (Barroso et al., Ranganathan et al.): record
// once on the detailed model, then sweep cache parameters offline without
// re-running the full system simulation.
//
// The on-disk format is a small header followed by fixed 10-byte records
// (cpu, kind, 8-byte address), written through a buffered writer; traces
// of a few million references are tens of megabytes.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"odbscale/internal/cache"
)

// Kind mirrors cache.Kind for storage.
type Kind = cache.Kind

// Record is one captured memory reference.
type Record struct {
	CPU  uint8
	Kind Kind
	Addr uint64
}

// Magic opens every trace file.
const Magic = "ODBTR1"

// Writer streams records to an io.Writer.
type Writer struct {
	w     *bufio.Writer
	count uint64
}

// NewWriter writes the header and returns a trace writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one record.
func (t *Writer) Write(r Record) error {
	var buf [10]byte
	buf[0] = r.CPU
	buf[1] = byte(r.Kind)
	binary.LittleEndian.PutUint64(buf[2:], r.Addr)
	if _, err := t.w.Write(buf[:]); err != nil {
		return err
	}
	t.count++
	return nil
}

// Count returns the number of records written.
func (t *Writer) Count() uint64 { return t.count }

// Flush drains the buffer; call before closing the underlying writer.
func (t *Writer) Flush() error { return t.w.Flush() }

// Reader iterates over a stored trace.
type Reader struct {
	r *bufio.Reader
	n uint64 // records returned so far
}

// NewReader validates the header and returns a reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [len(Magic)]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:]) != Magic {
		return nil, errors.New("trace: not an ODBTR1 trace")
	}
	return &Reader{r: br}, nil
}

// Next returns the next record; io.EOF ends the trace. Read failures
// mid-stream are wrapped with the failing record's index and byte
// offset, so a corrupt or truncated trace names the exact spot; a clean
// io.EOF at a record boundary passes through unwrapped.
func (t *Reader) Next() (Record, error) {
	var buf [10]byte
	if _, err := io.ReadFull(t.r, buf[:]); err != nil {
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return Record{}, err
		}
		return Record{}, fmt.Errorf("trace: record %d (offset %d): %w", t.n, t.offset(), err)
	}
	t.n++
	return Record{
		CPU:  buf[0],
		Kind: Kind(buf[1]),
		Addr: binary.LittleEndian.Uint64(buf[2:]),
	}, nil
}

// offset returns the file position of the next record: the 6-byte
// header plus the fixed 10-byte records already consumed.
func (t *Reader) offset() uint64 { return uint64(len(Magic)) + t.n*10 }

// ReplayStats summarizes one replay.
type ReplayStats struct {
	Refs       uint64
	TCMisses   uint64
	L2Misses   uint64
	L3Misses   uint64
	CoherMiss  uint64
	Writebacks uint64
}

// L3MissRatio returns L3 misses per reference.
func (s ReplayStats) L3MissRatio() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.L3Misses) / float64(s.Refs)
}

// Replay drives a trace through a cache domain. The domain's CPU count
// must cover every CPU id in the trace.
func Replay(r *Reader, domain *cache.Domain) (ReplayStats, error) {
	var s ReplayStats
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return s, nil
		}
		if err != nil {
			return s, err
		}
		if int(rec.CPU) >= len(domain.CPUs) {
			return s, fmt.Errorf("trace: record %d is for CPU %d but domain has %d", s.Refs, rec.CPU, len(domain.CPUs))
		}
		res := domain.Access(int(rec.CPU), cache.Addr(rec.Addr), rec.Kind)
		s.Refs++
		if res.TCMiss {
			s.TCMisses++
		}
		if res.L2Miss {
			s.L2Misses++
		}
		if res.L3Miss {
			s.L3Misses++
		}
		if res.Coherence {
			s.CoherMiss++
		}
		if res.Writeback {
			s.Writebacks++
		}
	}
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modulePrefix is the import-path prefix of the simulator's packages.
const modulePrefix = "odbscale/internal/"

// gortLayer collects samples with no simulator frame on their stack: the
// Go runtime's GC workers, the scheduler, and the profiler itself.
const gortLayer = "gort"

// layers maps every package under internal/ to the one layer its host
// time is charged to. A new package must be added here (the layer-map
// test fails otherwise), so it cannot silently fall into gort.
var layers = []struct {
	name     string
	packages []string
}{
	{"sim", []string{"sim"}},
	{"osker", []string{"osker"}},
	{"system", []string{"system"}},
	{"workload", []string{"workload"}},
	{"xrand", []string{"xrand"}},
	{"cache", []string{"cache"}},
	{"cpu", []string{"cpu"}},
	{"bus", []string{"bus"}},
	{"buffercache", []string{"buffercache"}},
	{"odb", []string{"odb"}},
	{"engine", []string{"engine", "engine/btree", "engine/lsm", "btree"}},
	{"storage", []string{"storage"}},
	// Observers and analysis packages. No workload attaches an observer,
	// so this row reads near zero; it exists so the rows cover every
	// package and sum to the traced total.
	{"other", []string{
		"campaign", "clock", "core", "experiment", "lint", "model",
		"perfmon", "profile", "qstats", "stats", "telemetry", "trace", "txtrace",
	}},
}

// layerNames lists the report rows in order: the layers, then gort.
func layerNames() []string {
	out := make([]string, 0, len(layers)+1)
	for _, l := range layers {
		out = append(out, l.name)
	}
	return append(out, gortLayer)
}

// layerOfPackage maps a package path relative to internal/ to its layer.
var layerOfPackage = func() map[string]string {
	m := map[string]string{}
	for _, l := range layers {
		for _, p := range l.packages {
			m[p] = l.name
		}
	}
	return m
}()

// layerOfFunc returns the layer of a profiled function name such as
// "odbscale/internal/cache.(*Domain).Access", or "" when the function is
// not in a simulator package.
func layerOfFunc(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	fn = strings.TrimPrefix(fn, modulePrefix)
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type arguments may hold paths
	}
	pkgEnd := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[pkgEnd:], '.'); dot >= 0 {
		fn = fn[:pkgEnd+dot]
	}
	return layerOfPackage[fn]
}

// cpuProfile is the part of a pprof profile the attribution needs: each
// sample's stack as function names, leaf first, and its CPU time.
type cpuProfile struct {
	stacks [][]string
	values []int64
}

// attribute charges every sample to the innermost simulator frame on its
// stack, so map probes, memmove and malloc land on the layer that called
// them, and returns each layer's share of the profile's CPU time. Shares
// sum to 1 whenever the profile holds any time.
func (p *cpuProfile) attribute() map[string]float64 {
	per := map[string]int64{}
	var total int64
	for i, stack := range p.stacks {
		layer := gortLayer
		for _, fn := range stack {
			if l := layerOfFunc(fn); l != "" {
				layer = l
				break
			}
		}
		per[layer] += p.values[i]
		total += p.values[i]
	}
	shares := map[string]float64{}
	for _, name := range layerNames() {
		if total > 0 {
			shares[name] = float64(per[name]) / float64(total)
		} else {
			shares[name] = 0
		}
	}
	return shares
}

// merge appends another profile's samples.
func (p *cpuProfile) merge(o *cpuProfile) {
	p.stacks = append(p.stacks, o.stacks...)
	p.values = append(p.values, o.values...)
}

// parseProfile decodes a gzipped pprof protobuf, as runtime/pprof writes
// it. Only the fields the attribution needs are read: samples, locations
// (with their inlined lines, innermost first), functions and strings.
func parseProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		strs      []string
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(b, func(f int, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendUints(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if idx := funcNames[fid]; idx >= 0 && idx < int64(len(strs)) {
					stack = append(stack, strs[idx])
				}
			}
		}
		out.stacks = append(out.stacks, stack)
		out.values = append(out.values, s.values[len(s.values)-1]) // CPU time is the last sample value
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. For varint fields
// v holds the value; for length-delimited fields b holds the payload.
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

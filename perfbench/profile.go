package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzip-compressed profile.proto that runtime/pprof
// writes. The module has no dependencies, so this decodes just the fields
// the per-layer attribution needs: sample types, samples with their labels,
// locations (with inlined frames) and function names.

// profile is a decoded CPU profile.
type profile struct {
	valueIndex int                 // index of the cpu/nanoseconds value
	samples    []profSample        // in file order
	funcs      map[uint64]string   // function id -> name
	locs       map[uint64][]uint64 // location id -> function ids, innermost first
}

// profSample is one stack with its CPU time and span label.
type profSample struct {
	locs  []uint64 // leaf first
	nanos int64
	span  string // value of the "span" label, "" when unlabeled
}

// stack returns the sample's function names, leaf first, inlined frames
// expanded.
func (p *profile) stack(s profSample) []string {
	var out []string
	for _, l := range s.locs {
		for _, f := range p.locs[l] {
			out = append(out, p.funcs[f])
		}
	}
	return out
}

// parseProfile decodes a gzip-compressed CPU profile.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // (key, str) string-table indices
	}
	var (
		strs      []string
		types     []int64 // sample_type.type string indices
		rsamples  []rawSample
		funcNames = map[uint64]int64{}
		locs      = map[uint64][]uint64{}
	)
	err = walkFields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			return walkFields(data, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walkFields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					s.locs = appendUints(s.locs, v, d)
				case 2:
					for _, u := range appendUints(nil, v, d) {
						s.values = append(s.values, int64(u))
					}
				case 3:
					var kv [2]int64
					if err := walkFields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 || n == 2 {
							kv[n-1] = int64(v)
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			})
			rsamples = append(rsamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return walkFields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{valueIndex: -1, funcs: map[uint64]string{}, locs: locs}
	for i, t := range types {
		if str(t) == "cpu" {
			p.valueIndex = i
		}
	}
	if p.valueIndex < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	for id, n := range funcNames {
		p.funcs[id] = str(n)
	}
	for _, rs := range rsamples {
		if p.valueIndex >= len(rs.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := profSample{locs: rs.locs, nanos: rs.values[p.valueIndex]}
		for _, kv := range rs.labels {
			if str(kv[0]) == "span" {
				s.span = str(kv[1])
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// walkFields calls fn for every field of one protobuf message: v carries
// varint and fixed-width values, data the bytes of length-delimited fields.
func walkFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			for i := 3; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, which the writer emits
// packed (data set) or as one varint per element.
func appendUints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layers are the repository's modules that self time is attributed to.
var layers = []string{
	"sim", "cpu", "cache", "mem", "nic", "workload", "core",
	"machine", "fabric", "cluster", "experiments", "stats",
}

const (
	layerGC    = "runtime.gc"
	layerOther = "other"
	modulePkg  = "sweeper/internal/"
)

// layerOf attributes one stack (leaf first) to a layer. Any frame of the
// garbage collector makes the sample GC time. Otherwise the innermost frame
// that belongs to a listed layer owns it, so runtime helpers (allocation,
// memclr, map access) and small utility packages (addr, fastdiv, noc, obs)
// are charged to the layer that called them. Samples with no layer frame —
// the scheduler, the benchmark's own bookkeeping, the profiler — are other.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if isGCFrame(fn) {
			return layerGC
		}
	}
	for _, fn := range stack {
		if !strings.HasPrefix(fn, modulePkg) {
			continue
		}
		pkg := fn[len(modulePkg):]
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range layers {
			if pkg == l {
				return l
			}
		}
	}
	return layerOther
}

func isGCFrame(fn string) bool {
	switch {
	case strings.HasPrefix(fn, "runtime.gc"),
		strings.HasPrefix(fn, "runtime.markroot"),
		strings.HasPrefix(fn, "runtime.scanobject"),
		strings.HasPrefix(fn, "runtime.wbBuf"),
		fn == "runtime.bgsweep", fn == "runtime.bgscavenge",
		fn == "runtime.sweepone", fn == "runtime.GC",
		fn == "runtime.(*mheap).reclaim":
		return true
	}
	return false
}

// selfTimes sums CPU seconds per layer, over every sample or only those
// carrying the given span label (span == "" selects all). It also returns
// the total of the samples it considered, which the layers sum to exactly.
func (p *profile) selfTimes(span string) (map[string]float64, float64) {
	out := map[string]float64{}
	var total int64
	for _, s := range p.samples {
		if span != "" && s.span != span {
			continue
		}
		out[layerOf(p.stack(s))] += float64(s.nanos) / 1e9
		total += s.nanos
	}
	return out, float64(total) / 1e9
}

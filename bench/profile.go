package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerOf names the layer a profiled function belongs to: the simulator's
// kunserve/internal/<p> packages map to <p> with "/" replaced by ".", the
// Go runtime (runtime, runtime/..., internal/runtime/...) to "runtime", and
// the rest of the standard library to "std".
func layerOf(fn string) string {
	// Generic instantiations carry package paths inside their brackets.
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "kunserve/internal/"):
		return strings.ReplaceAll(strings.TrimPrefix(pkg, "kunserve/internal/"), "/", ".")
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "kunserve/"):
		return strings.ReplaceAll(strings.TrimPrefix(pkg, "kunserve/"), "/", ".")
	case !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		// Standard-library import paths have no dot in their first element.
		return "std"
	}
	return pkg
}

// parseLeafCPU decodes a gzipped pprof CPU profile and returns CPU seconds
// by leaf function: the innermost (inlined) frame of each sample's first
// location. It reads only the protobuf fields it needs, so the benchmark
// adds no module dependency.
func parseLeafCPU(data []byte) (map[string]float64, error) {
	out := map[string]float64{}
	if len(data) == 0 {
		return out, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		types     [][2]uint64 // (type, unit) string indexes
		samples   []pbSample
		locLeaf   = map[uint64]uint64{} // location ID → leaf function ID
		funcNames = map[uint64]uint64{} // function ID → name string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]uint64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = v
				}
				return nil
			})
			types = append(types, vt)
			return err
		case 2: // sample
			var s pbSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					s.values = appendVarints(s.values, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, leaf uint64
			haveLeaf := false
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if !haveLeaf {
						haveLeaf = true
						return eachField(b, func(n, _ int, v uint64, _ []byte) error {
							if n == 1 {
								leaf = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locLeaf[id] = leaf
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// Use the cpu/nanoseconds value when the profile carries one.
	vi, scale := 0, 1.0
	for i, t := range types {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			vi, scale = i, 1e-9
		}
	}
	for _, s := range samples {
		if len(s.locs) == 0 || vi >= len(s.values) {
			continue
		}
		name := str(funcNames[locLeaf[s.locs[0]]])
		if name == "" {
			name = "unknown"
		}
		out[name] += float64(int64(s.values[vi])) * scale
	}
	return out, nil
}

type pbSample struct{ locs, values []uint64 }

// appendVarints appends a repeated scalar field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and value: v for varints, b for length-delimited
// fields. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"sort"
	"strings"
)

// funcShare is one function's flat share of the CPU-profile samples.
type funcShare struct {
	Func  string
	Share float64
}

// cpuPackages are the buckets the traced run reports as cpu.<name>.
var cpuPackages = []string{"node", "attest", "piece", "transport", "protocol", "eventsim", "sim", "incentive", "crypto.sha256", "syscall", "runtime"}

// flatShares parses a gzipped pprof CPU profile and returns every leaf
// function's share of the sampled CPU time, largest first. It decodes the
// few profile.proto fields it needs: samples (location IDs and values),
// locations (their innermost line's function), functions and the string
// table.
func flatShares(gz []byte) ([]funcShare, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location ID -> innermost function ID
		funcName  = map[uint64]int64{}  // function ID -> string index
		strs      []string
		valueType = 1 // index of cpu nanoseconds in sample values
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var locs, vals []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendVarints(locs, wire, v, b)
				case 2:
					vals = appendVarints(vals, wire, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > valueType {
				s.leaf, s.value = locs[0], int64(vals[valueType])
				samples = append(samples, s)
			}
		case 4: // Location
			var id, fn uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if fn == 0 {
						return eachField(b, func(num, wire int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	byFunc := map[string]int64{}
	var total int64
	for _, s := range samples {
		name := "?"
		if i, ok := funcName[locFunc[s.leaf]]; ok && int(i) < len(strs) {
			name = strs[i]
		}
		byFunc[name] += s.value
		total += s.value
	}
	out := make([]funcShare, 0, len(byFunc))
	for f, v := range byFunc {
		out = append(out, funcShare{Func: f, Share: float64(v) / float64(max(total, 1))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Func < out[j].Func
	})
	return out, nil
}

// packageOf maps a symbol to one of cpuPackages, or "" for any other code.
func packageOf(fn string) string {
	path := fn
	if i := strings.IndexAny(path, "(["); i >= 0 {
		path = path[:i] // receiver or type arguments may hold other paths
	}
	if slash := strings.LastIndex(path, "/"); slash >= 0 {
		if dot := strings.Index(path[slash:], "."); dot >= 0 {
			path = path[:slash+dot]
		}
	} else if dot := strings.Index(path, "."); dot >= 0 {
		path = path[:dot]
	}
	switch {
	case strings.HasPrefix(path, "repro/internal/"):
		return strings.TrimPrefix(path, "repro/internal/")
	case strings.HasSuffix(path, "/sha256") || path == "crypto/sha256":
		return "crypto.sha256"
	case path == "syscall" || path == "internal/runtime/syscall" || path == "internal/syscall/unix":
		return "syscall"
	case path == "runtime" || strings.HasPrefix(path, "runtime/") || strings.HasPrefix(path, "internal/runtime/"):
		return "runtime"
	}
	return ""
}

// packageShares sums function shares into the cpuPackages buckets.
func packageShares(fs []funcShare) map[string]float64 {
	out := make(map[string]float64, len(cpuPackages))
	for _, p := range cpuPackages {
		out[p] = 0
	}
	for _, f := range fs {
		if p := packageOf(f.Func); p != "" {
			if _, ok := out[p]; ok {
				out[p] += f.Share
			}
		}
	}
	return out
}

var errTruncated = errors.New("cpu profile: truncated field")

// eachField walks the top-level fields of one protobuf message, passing
// varint values as v and length-delimited payloads as b.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(buf); n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return errors.New("cpu profile: unsupported wire type")
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (wire type 0) or packed (wire type 2).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}

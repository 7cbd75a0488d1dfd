package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// cpuShareGroups maps each CPU-share metric to the packages whose self
// samples it counts.  A package is matched by its import path; the
// first group that matches wins.
var cpuShareGroups = []struct {
	metric string
	match  func(pkg string) bool
}{
	{"sim.cpu_share", is("repro/internal/sim")},
	{"netsim.cpu_share", is("repro/internal/netsim")},
	{"cpu_share.simulate", is("repro/qnet/simulate")},
	{"cpu_share.distrib", is("repro/qnet/distrib")},
	{"cpu_share.net_http", func(p string) bool { return p == "net/http" || strings.HasPrefix(p, "net/http/") }},
	{"cpu_share.encoding_json", is("encoding/json")},
	{"cpu_share.sha256", func(p string) bool { return p == "sha256" || strings.HasSuffix(p, "/sha256") }},
	{"cpu_share.syscall", is("syscall", "internal/runtime/syscall", "runtime/internal/syscall", "internal/syscall/unix")},
	{"cpu_share.runtime", func(p string) bool { return p == "runtime" || strings.HasPrefix(p, "internal/runtime/") }},
}

func is(pkgs ...string) func(string) bool {
	return func(p string) bool {
		for _, q := range pkgs {
			if p == q {
				return true
			}
		}
		return false
	}
}

// cpuShares folds a runtime/pprof CPU profile's self samples (the leaf
// frame of each sample, inlined frames resolved to the innermost
// function) by package into the share metrics of cpuShareGroups.
// Every group is reported, 0 when it has no samples.
func cpuShares(gz []byte) (map[string]float64, error) {
	leaf, err := leafCPU(gz)
	if err != nil {
		return nil, err
	}
	var total float64
	for _, v := range leaf {
		total += v
	}
	out := make(map[string]float64, len(cpuShareGroups))
	for _, g := range cpuShareGroups {
		out[g.metric] = 0
	}
	if total == 0 {
		return out, nil
	}
	for fn, v := range leaf {
		pkg := packageOf(fn)
		for _, g := range cpuShareGroups {
			if g.match(pkg) {
				out[g.metric] += v / total
				break
			}
		}
	}
	return out, nil
}

// packageOf returns the import path of a symbol such as
// "repro/internal/sim.(*Engine).Step" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// leafCPU decodes a gzipped pprof profile and returns the last sample
// value (CPU nanoseconds) summed per leaf function name.  It reads only
// the profile.proto fields it needs: samples, locations with their
// lines, functions and the string table.
func leafCPU(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		loc   uint64
		value int64
	}
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location id → innermost function id
		funcName  = map[uint64]int64{}  // function id → string index
		strtab    []string
		decodeErr error
	)
	err = fields(raw, func(num int, v uint64, b []byte) {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			decodeErr = errors.Join(decodeErr, fields(b, func(n int, v uint64, b []byte) {
				switch n {
				case 1: // location_id, packed or not
					ids := repeated(v, b)
					if first && len(ids) > 0 {
						s.loc, first = ids[0], false
					}
				case 2: // value, packed or not
					if vals := repeated(v, b); len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
			}))
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			lines := 0
			decodeErr = errors.Join(decodeErr, fields(b, func(n int, v uint64, b []byte) {
				switch n {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined function
					if lines++; lines == 1 {
						decodeErr = errors.Join(decodeErr, fields(b, func(n int, v uint64, _ []byte) {
							if n == 1 {
								fn = v
							}
						}))
					}
				}
			}))
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			decodeErr = errors.Join(decodeErr, fields(b, func(n int, v uint64, _ []byte) {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
	})
	if err = errors.Join(err, decodeErr); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, s := range samples {
		idx, ok := funcName[locFunc[s.loc]]
		if !ok || idx < 0 || int(idx) >= len(strtab) {
			continue
		}
		out[strtab[idx]] += float64(s.value)
	}
	return out, nil
}

// repeated returns the values of a repeated integer field: the single
// varint v when b is nil, else the packed varints in b.
func repeated(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}

// fields walks a protobuf message, calling fn with each field's number
// and either its varint value (b nil) or its length-delimited bytes.
// Fixed-width fields are skipped.
func fields(msg []byte, fn func(num int, v uint64, b []byte)) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			fn(num, v, nil)
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
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
			fn(num, 0, b)
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return errors.New("unknown wire type")
		}
	}
	return nil
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
)

// hostShareLayers maps the repository packages whose host share the
// traced pass reports to their metric names.
var hostShareLayers = []struct{ pkg, metric string }{
	{"mproxy/internal/sim", "sim.host_share"},
	{"mproxy/internal/machine", "machine.host_share"},
	{"mproxy/internal/proxy", "proxy.host_share"},
	{"mproxy/internal/machine/topo", "topo.host_share"},
	{"mproxy/internal/comm", "comm.host_share"},
	{"mproxy/internal/am", "am.host_share"},
	{"mproxy/internal/kv", "kv.host_share"},
	{"mproxy/internal/workload/openloop", "openloop.host_share"},
	{"mproxy/internal/crl", "crl.host_share"},
	{"mproxy/internal/splitc", "splitc.host_share"},
	{"mproxy/internal/coll", "coll.host_share"},
	{"mproxy/internal/costmodel", "costmodel.host_share"},
}

// hostShares runs fn under the CPU profiler and sets each layer's share
// of the profiled CPU time. A sample is charged to the innermost frame
// that belongs to a repository package, so runtime work a layer causes
// (allocation, map access, write barriers) counts as that layer's; samples
// with no repository frame (background GC, the scheduler) are charged to
// no layer.
func hostShares(r *report, fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	byPkg, total, err := cpuByPackage(buf.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	if total == 0 {
		return errors.New("cpu profile: no samples")
	}
	for _, l := range hostShareLayers {
		r.set(l.metric, float64(byPkg[l.pkg])/float64(total))
	}
	return nil
}

// cpuByPackage decodes a gzipped pprof CPU profile and sums its sampled
// CPU nanoseconds by the package of each sample's innermost repository
// frame ("" when the stack has none). It reads only the profile fields it
// needs: samples, locations with their line records, functions and the
// string table.
func cpuByPackage(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Location.line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Profile.function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	pkgOf := map[uint64]string{}
	for id, si := range fnName {
		if si >= 0 && si < int64(len(strs)) {
			pkgOf[id] = funcPackage(strs[si])
		}
	}
	byPkg := map[string]int64{}
	var total int64
	for _, s := range samples {
		if len(s.vals) < 2 {
			continue
		}
		ns := s.vals[1] // CPU profiles carry [samples, cpu nanoseconds]
		total += ns
		byPkg[ownerPackage(s.locs, locFns, pkgOf)] += ns
	}
	return byPkg, total, nil
}

// ownerPackage returns the package of the innermost repository frame on
// a stack (leaf location first; inlined lines innermost first).
func ownerPackage(locs []uint64, locFns map[uint64][]uint64, pkgOf map[uint64]string) string {
	for _, l := range locs {
		for _, fn := range locFns[l] {
			if p := pkgOf[fn]; strings.HasPrefix(p, "mproxy/") {
				return p
			}
		}
	}
	return ""
}

// funcPackage returns the import path of a symbol name such as
// "mproxy/internal/sim.(*FIFO[...]).Put": the text up to the first dot
// after the last slash that precedes any receiver or type argument.
func funcPackage(sym string) string {
	head := sym
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(head[slash+1:], "."); dot >= 0 {
		return head[:slash+1+dot]
	}
	return head
}

// fields walks the protobuf fields of msg, passing varint values as v and
// length-delimited payloads as b. Fixed-width fields are skipped.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
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
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value when
// the field arrived unpacked (b nil), else every varint packed in b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
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

// runtimeCPU samples the Go runtime's CPU accounting: seconds spent in
// garbage collection and seconds of CPU the process used (all classes
// but idle).
func runtimeCPU() (gc, used float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return f(0), f(1) - f(2)
}

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

// Host self time per layer comes from a CPU profile of the traced phase.
// The layers call each other through the event engine, so no span taken
// from outside can split them inside Engine.Run or Drain; sampling needs
// no change to the program.
//
// Each sample is charged to its innermost bgcnk/internal/<pkg> frame, so
// runtime frames beneath that frame (channel handoff, allocation, GC
// assist) count toward the same layer. The benchmark's own app code runs
// inside machine.Launch's closure; its frames (package main) stop the
// walk and go to other, as internal/apps frames do. Stacks with no such
// frame go to gc when they run a GC worker, to sched when they are Go
// scheduler stacks, and to other otherwise.

// selfBuckets lists the buckets in report order.
var selfBuckets = []string{"sim", "hw", "machine", "kernel", "torus", "collective", "ciod",
	"ion", "fs", "ckpt", "ctrlsys", "upc", "gc", "sched", "other"}

// pkgBucket maps a bgcnk/internal package to its bucket; packages not
// listed go to other.
var pkgBucket = map[string]string{
	"sim": "sim", "hw": "hw", "machine": "machine",
	"kernel": "kernel", "cnk": "kernel", "fwk": "kernel", "mem": "kernel", "nptl": "kernel", "loader": "kernel",
	"torus": "torus", "dcmf": "torus",
	"collective": "collective", "barrier": "collective",
	"ciod": "ciod", "ion": "ion", "fs": "fs", "ckpt": "ckpt",
	"ctrlsys": "ctrlsys", "upc": "upc",
}

const internalPrefix = "bgcnk/internal/"

// bucketOf classifies one sample's stack, innermost frame first.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "other"
		}
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/") // ctrlsys/wal counts as ctrlsys, sim/replica as sim
			if b, ok := pkgBucket[pkg]; ok {
				return b
			}
			return "other"
		}
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC":
			return "gc"
		}
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.mcall", "runtime.mstart", "runtime.schedule", "runtime.findRunnable":
			return "sched"
		}
	}
	return "other"
}

// selfShares decodes a gzipped pprof CPU profile and returns each
// bucket's share of samples in percent, plus the sample count.
func selfShares(gz []byte) (map[string]float64, int64, error) {
	stacks, counts, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	perBucket := map[string]int64{}
	var total int64
	for i, st := range stacks {
		perBucket[bucketOf(st)] += counts[i]
		total += counts[i]
	}
	shares := make(map[string]float64, len(selfBuckets))
	for _, b := range selfBuckets {
		if total > 0 {
			shares[b] = 100 * float64(perBucket[b]) / float64(total)
		} else {
			shares[b] = 0
		}
	}
	return shares, total, nil
}

// decodeProfile reads the subset of profile.proto that a runtime/pprof
// CPU profile uses: samples (location ids, values), locations (lines) and
// functions (names), and the string table. It returns each sample's stack
// as function names, innermost first, with the sample's count.
func decodeProfile(gz []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strtab    []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			var values []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendScalars(s.locs, w, v, b)
				case 2:
					values = appendScalars(values, w, v, b)
				}
				return nil
			})
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
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
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
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
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, len(samples))
	counts := make([]int64, len(samples))
	for i, s := range samples {
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if idx := funcNames[fid]; idx >= 0 && idx < int64(len(strtab)) {
					stacks[i] = append(stacks[i], strtab[idx])
				}
			}
		}
		counts[i] = s.count
	}
	return stacks, counts, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks a protobuf message, calling fn with each field's
// number, wire type and value (varint) or bytes (length-delimited).
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendScalars appends a repeated varint field, packed or not.
func appendScalars(dst []uint64, wire int, v uint64, b []byte) []uint64 {
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

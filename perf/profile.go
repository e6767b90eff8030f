package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the gzip'd protobuf that runtime/pprof writes and folds
// its CPU samples onto the repository's packages. Only the five fields of
// profile.proto the attribution needs are decoded; everything else is
// skipped by wire type.

// cpuSample is one stack, leaf first, with its sample count.
type cpuSample struct {
	funcs []string
	count int64
}

var errTruncated = errors.New("pprof: truncated message")

// protoField is one decoded field: a varint value or a length-delimited
// payload (fixed-width fields are skipped, profile.proto has none we need).
type protoField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// eachField calls fn for every field of one message.
func eachField(b []byte, fn func(f protoField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		b = rest
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.val, b, err = readVarint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil {
				return err
			}
			if uint64(len(rest)) < n {
				return errTruncated
			}
			f.data, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarint appends a repeated integer field's values, packed or not.
func repeatedVarint(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	for b := f.data; len(b) > 0; {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// parseProfile decodes a CPU profile into stacks of function names.
func parseProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var samples []rawSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost inlined frame first
	funcName := map[uint64]uint64{}   // function id -> string table index
	var strs []string
	err = eachField(raw, func(f protoField) error {
		switch f.num {
		case 2: // Sample: location_id = 1, value = 2
			var s rawSample
			err := eachField(f.data, func(sf protoField) (err error) {
				switch sf.num {
				case 1:
					s.locs, err = repeatedVarint(s.locs, sf)
				case 2:
					s.values, err = repeatedVarint(s.values, sf)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location: id = 1, line = 4 { function_id = 1 }
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(lf protoField) error {
				switch lf.num {
				case 1:
					id = lf.val
				case 4:
					return eachField(lf.data, func(ln protoField) error {
						if ln.num == 1 {
							fns = append(fns, ln.val)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			err := eachField(f.data, func(ff protoField) error {
				switch ff.num {
				case 1:
					id = ff.val
				case 2:
					name = ff.val
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		cs := cpuSample{count: int64(s.values[0])} // value[0] is samples/count
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					cs.funcs = append(cs.funcs, strs[idx])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

const repoPrefix = "kafkadirect/internal/"

// Runtime frames that identify a stack with no repository frame beneath it.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcMark", "runtime.gcStart", "runtime.gcAssistAlloc", "runtime.sweepone", "runtime.scanobject"}
var schedFrames = []string{"runtime.schedule", "runtime.park_m", "runtime.findRunnable", "runtime.futex",
	"runtime.mcall", "runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.goexit0", "runtime.gosched_m",
	"runtime.gopreempt_m", "runtime.notesleep", "runtime.notewakeup", "runtime.usleep", "runtime.osyield"}

// bucketOf charges one stack to the innermost kafkadirect/internal/<pkg>
// frame, so runtime work (allocation, channel operations, memmove) is billed
// to the package that asked for it. A stack with no such frame is the
// harness's own (a main.* frame), the scheduler's, the collector's, or other.
func bucketOf(funcs []string) string {
	for _, fn := range funcs {
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	has := func(names []string) bool {
		for _, fn := range funcs {
			for _, n := range names {
				if strings.HasPrefix(fn, n) {
					return true
				}
			}
		}
		return false
	}
	switch {
	case has([]string{"main."}):
		return "harness"
	case has(gcFrames):
		return "runtime_gc"
	case has(schedFrames):
		return "runtime_sched"
	}
	return "runtime_other"
}

// hostShares folds samples into percentages per bucket. Every name in
// sharePackages and shareRuntime is present; a repository package outside
// that list (there is none today) would be folded into runtime_other so the
// shares still sum to 100.
func hostShares(samples []cpuSample) (shares map[string]float64, total int64) {
	shares = map[string]float64{}
	for _, n := range sharePackages {
		shares[n] = 0
	}
	for _, n := range shareRuntime {
		shares[n] = 0
	}
	counts := map[string]int64{}
	for _, s := range samples {
		b := bucketOf(s.funcs)
		if _, ok := shares[b]; !ok {
			b = "runtime_other"
		}
		counts[b] += s.count
		total += s.count
	}
	if total > 0 {
		for b, c := range counts {
			shares[b] = 100 * float64(c) / float64(total)
		}
	}
	return shares, total
}

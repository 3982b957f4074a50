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

// The CPU profile runtime/pprof writes is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). This file decodes the few
// fields the benchmark needs with the standard library alone: each sample's
// value and the function names on its stack.

const internalPrefix = "lotec/internal/"

// benchLayer is the layer charged for the benchmark's own frames (its
// method bodies and span recording) when no program frame is nearer the
// leaf.
const benchLayer = "bench"

// otherLayer collects samples with no program or benchmark frame on the
// stack: the garbage collector, the scheduler, idle network polling.
const otherLayer = "other"

// layerOf charges one stack to a layer. frames are function names, leaf
// first. The innermost lotec/internal/<pkg> frame names the layer, so a
// standard-library sort called from the directory counts toward gdo. A
// frame of the benchmark's own main package nearer the leaf charges the
// sample to the benchmark instead.
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				return rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(f, "main.") {
			return benchLayer
		}
	}
	return otherLayer
}

// cpuByLayer decodes a CPU profile and returns the CPU time per layer and
// in total, in the profile's sample unit (nanoseconds for runtime/pprof).
func cpuByLayer(gz []byte) (map[string]int64, int64, error) {
	raw, err := gunzip(gz)
	if err != nil {
		return nil, 0, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	by := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				frames = append(frames, p.str(p.funcName[fn]))
			}
		}
		v := s.value(p.valueIndex)
		by[layerOf(frames)] += v
		total += v
	}
	return by, total, nil
}

func gunzip(gz []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return raw, nil
}

type pbSample struct {
	locs   []uint64
	values []int64
}

func (s pbSample) value(i int) int64 {
	if i < len(s.values) {
		return s.values[i]
	}
	return 0
}

type pbProfile struct {
	samples  []pbSample
	locFuncs map[uint64][]uint64 // location → function IDs, innermost first
	funcName map[uint64]int64    // function → string table index
	strings  []string
	// valueIndex selects the CPU time column: the last sample type
	// ("cpu/nanoseconds" after "samples/count").
	valueIndex int
}

func (p *pbProfile) str(i int64) string {
	if i >= 0 && int(i) < len(p.strings) {
		return p.strings[i]
	}
	return ""
}

func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	sampleTypes := 0
	err := forFields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			sampleTypes++
		case 2: // sample
			var s pbSample
			err := forFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, data)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, data); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := forFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return forFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := forFields(data, func(num int, v uint64, _ []byte) error {
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
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if sampleTypes > 0 {
		p.valueIndex = sampleTypes - 1
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protocol buffer")

// forFields walks the fields of one message. For a varint field fn gets
// the value; for a length-delimited field it gets the bytes. Fixed-width
// fields are skipped.
func forFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which encoders may write
// one value at a time (data nil) or packed (data holds the varints).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

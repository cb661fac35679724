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

// layerPrefix is the import-path prefix of the simulator's layers; a
// frame under perfiso/internal/<pkg> is charged to layer <pkg>.
const layerPrefix = "perfiso/internal/"

// foldLayers are the layers the traced run reports a host-time split
// for. Any other package folds into "other"; Go runtime frames into
// "goruntime".
var foldLayers = []string{
	"sim", "sched", "lock", "proc", "mem", "disk", "fs", "profile", "latency",
	"control", "fault", "invariant", "metrics", "kernel", "workload",
}

// Fold is a CPU profile folded by layer: Self[l] counts samples whose
// leaf frame is in layer l, Incl[l] samples with any frame in it.
type Fold struct {
	Samples int64
	Self    map[string]int64
	Incl    map[string]int64
}

// Add merges another fold into f.
func (f *Fold) Add(o Fold) {
	if f.Self == nil {
		f.Self, f.Incl = map[string]int64{}, map[string]int64{}
	}
	f.Samples += o.Samples
	for k, v := range o.Self {
		f.Self[k] += v
	}
	for k, v := range o.Incl {
		f.Incl[k] += v
	}
}

// layerOf maps a symbolized function name to its layer. Methods,
// closures and generic instantiations map to the package that declares
// them: perfiso/internal/disk.(*PIso).pick.func1 is "disk".
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain paths of other packages
	}
	pkg := fn
	if slash := strings.LastIndexByte(pkg, '/'); slash >= 0 {
		if dot := strings.IndexByte(pkg[slash:], '.'); dot >= 0 {
			pkg = pkg[:slash+dot]
		}
	} else if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
		pkg = pkg[:dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/"):
		return "goruntime"
	case strings.HasPrefix(pkg, layerPrefix):
		l := pkg[len(layerPrefix):]
		for _, name := range foldLayers {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

// FoldProfile decodes a gzipped pprof CPU profile, as runtime/pprof
// writes it, and folds its samples by layer. Each sample is weighted by
// its sample count (the first value).
func FoldProfile(data []byte) (Fold, error) {
	f := Fold{Self: map[string]int64{}, Incl: map[string]int64{}}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return f, fmt.Errorf("fold: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return f, fmt.Errorf("fold: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return f, err
	}
	funcLayer := make(map[uint64]string, len(p.funcs))
	for id, nameIdx := range p.funcs {
		if nameIdx < 0 || int(nameIdx) >= len(p.strings) {
			return f, errors.New("fold: function name out of string table")
		}
		funcLayer[id] = layerOf(p.strings[nameIdx])
	}
	seen := map[string]bool{}
	for _, s := range p.samples {
		if len(s.values) == 0 || s.values[0] == 0 {
			continue
		}
		n := s.values[0]
		f.Samples += n
		clear(seen)
		leaf := ""
		for _, loc := range s.locs {
			// A location's lines run from the innermost inlined call
			// outwards, so the first line of the first location is the
			// frame that was executing.
			for _, fid := range p.locs[loc] {
				l := funcLayer[fid]
				if leaf == "" {
					leaf = l
				}
				if !seen[l] {
					seen[l] = true
					f.Incl[l] += n
				}
			}
		}
		if leaf == "" {
			leaf = "other"
		}
		f.Self[leaf] += n
	}
	return f, nil
}

// profile is the part of the pprof protobuf (profile.proto) the fold
// needs: samples as location stacks, locations as function-id lists,
// functions as string-table indexes.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64
	funcs   map[uint64]int64
	strings []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// Field numbers from profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID   = 1
	funcName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := forFields(b, func(field int, v uint64, sub []byte) error {
		switch field {
		case profSample:
			var s sample
			err := forFields(sub, func(field int, v uint64, sub []byte) error {
				switch field {
				case sampleLocation:
					return appendVarints(&s.locs, v, sub)
				case sampleValue:
					var vs []uint64
					if err := appendVarints(&vs, v, sub); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := forFields(sub, func(field int, v uint64, sub []byte) error {
				switch field {
				case locID:
					id = v
				case locLine:
					return forFields(sub, func(field int, v uint64, _ []byte) error {
						if field == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := forFields(sub, func(field int, v uint64, _ []byte) error {
				switch field {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case profStrings:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fold: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// forFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func forFields(b []byte, fn func(field int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field := int(key >> 3)
		var v uint64
		var sub []byte
		switch key & 7 {
		case 0: // varint
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1: // fixed64
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(field, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which arrives either
// packed (sub holds the varints) or as a single unpacked value.
func appendVarints(dst *[]uint64, v uint64, sub []byte) error {
	if sub == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// cpuLayers are the buckets host CPU is attributed to.
var cpuLayers = []string{
	"browser", "proxy", "pan", "pan_stripe", "pathdb", "squic", "shttp", "snet",
	"dataplane", "netsim", "webserver", "dnssim", "sciondetect", "crypto",
	"runtime_gc", "runtime_sched", "other",
}

// repoLayer maps a package of the program to its bucket.
var repoLayer = map[string]string{
	"tango/internal/browser":     "browser",
	"tango/internal/proxy":       "proxy",
	"tango/internal/pan":         "pan",
	"tango/internal/policy":      "pan",
	"tango/internal/ppl":         "pan",
	"tango/internal/pan/stripe":  "pan_stripe",
	"tango/internal/pathdb":      "pathdb",
	"tango/internal/segment":     "pathdb",
	"tango/internal/squic":       "squic",
	"tango/internal/shttp":       "shttp",
	"tango/internal/snet":        "snet",
	"tango/internal/dataplane":   "dataplane",
	"tango/internal/netsim":      "netsim",
	"tango/internal/webserver":   "webserver",
	"tango/internal/dnssim":      "dnssim",
	"tango/internal/sciondetect": "sciondetect",
}

// gcFrames and schedFrames mark a stack as garbage collection or scheduler
// work wherever they appear in it.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.gcDrain": true,
	"runtime.gcDrainN": true, "runtime.bgsweep": true, "runtime.bgscavenge": true,
	"runtime.gcStart": true, "runtime.markroot": true, "runtime.sweepone": true,
	"runtime.deductSweepCredit": true, "runtime.GC": true, "runtime.gcMarkDone": true,
	"runtime.gcMarkTermination": true,
}

var schedFrames = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.Gosched": true,
	"runtime.gosched_m": true, "runtime.goschedImpl": true, "runtime.park_m": true,
	"runtime.mcall": true, "runtime.gopark": true, "runtime.goready": true,
	"runtime.ready": true, "runtime.newproc": true, "runtime.goexit0": true,
	"runtime.stopm": true, "runtime.startm": true, "runtime.wakep": true,
	"runtime.notesleep": true, "runtime.futexsleep": true,
}

// cpuShares attributes a CPU profile's samples to layers: GC and scheduler
// stacks to their runtime buckets, a stack whose leaf is in crypto to
// crypto, and every other stack to the innermost frame in a package of the
// program. It returns each layer's share of CPU time and the sample count.
func cpuShares(profile []byte) (map[string]float64, int) {
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	p, err := parseProfile(profile)
	if err != nil || len(p.samples) == 0 {
		return shares, 0
	}
	var total float64
	for _, s := range p.samples {
		frames := p.frames(s.locs)
		shares[classify(frames)] += float64(s.value)
		total += float64(s.value)
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, len(p.samples)
}

func classify(frames []string) string {
	for _, f := range frames {
		if gcFrames[f] {
			return "runtime_gc"
		}
	}
	for _, f := range frames {
		if schedFrames[f] {
			return "runtime_sched"
		}
	}
	for _, f := range frames {
		pkg := funcPackage(f)
		if strings.HasPrefix(pkg, "crypto/") || strings.Contains(pkg, "golang.org/x/crypto") {
			return "crypto"
		}
		if l, ok := repoLayer[pkg]; ok {
			return l
		}
	}
	return "other"
}

// funcPackage returns the import path of a profiled function name such as
// "tango/internal/pan.(*Monitor).drainShard".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // last sample value: CPU nanoseconds
}

func (p *profile) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, fn := range p.locations[l] {
			if i := p.functions[fn]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

var errProto = errors.New("malformed profile")

// parseProfile decodes a gzipped profile.proto.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachVarint(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, b, func(x uint64) { s.value = int64(x) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			name := int64(-1)
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

// eachField walks a protobuf message, passing varint fields as v and
// length-delimited fields as b.
func eachField(buf []byte, f func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			if err := f(num, 0, buf[n:n+int(l)]); err != nil {
				return err
			}
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
		default:
			return errProto
		}
	}
	return nil
}

// eachVarint yields a repeated varint field, packed (b) or not (v).
func eachVarint(v uint64, b []byte, f func(uint64)) error {
	if b == nil {
		f(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		f(x)
		b = b[n:]
	}
	return nil
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// layerNames are the repository's modules as the per-layer report names
// them, in report order. Every CPU sample lands in exactly one.
var layerNames = []string{
	"eventq", "sim", "sim.handoff", "sched", "monitor", "paradigm",
	"workload", "cluster", "stats", "profile", "trace", "runtime.gc", "other",
}

// ownedPackages maps a repro/internal package (first path element) to
// its layer. Packages not listed (vclock, fault, core, ...) are helpers:
// their samples roll up to the nearest listed caller, as the standard
// library's do.
var ownedPackages = map[string]string{
	"eventq": "eventq", "sim": "sim", "sched": "sched", "monitor": "monitor",
	"paradigm": "paradigm", "workload": "workload", "cluster": "cluster",
	"stats": "stats", "profile": "profile", "trace": "trace",
}

// decoratorLayers maps the traced run's own wrappers to the layer they
// instrument, so their overhead is not billed to the simulator that calls
// them.
var decoratorLayers = map[string]string{
	"main.(*countingSink).": "trace",
	"main.(*timedPolicy).":  "sched",
}

// handoffPrefixes are the runtime's channel, park and goroutine-switch
// functions. Below a sim frame they are the driver/thread handoff.
var handoffPrefixes = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.send", "runtime.recv",
	"runtime.selectgo", "runtime.gopark", "runtime.goready", "runtime.ready",
	"runtime.park_m", "runtime.mcall", "runtime.schedule", "runtime.findRunnable",
	"runtime.execute", "runtime.gogo", "runtime.runq", "runtime.wakep",
	"runtime.startm", "runtime.stopm", "runtime.notewakeup", "runtime.futex",
	"runtime.lock", "runtime.unlock", "runtime.casgstatus", "runtime.dropg",
}

// notHandoffPrefixes mark runtime work a sim frame asks for that is not a
// handoff even when scheduler functions appear below it: spawning a
// thread's goroutine and allocating.
var notHandoffPrefixes = []string{
	"runtime.newproc", "runtime.malg", "runtime.mallocgc", "runtime.newobject",
	"runtime.growslice", "runtime.makeslice", "runtime.makechan",
}

// gcPrefixes mark garbage-collector work: background mark workers and
// the scheduler's search for them, assists, write-barrier buffer flushes,
// sweeping and scavenging.
var gcPrefixes = []string{
	"runtime.gc", "gcWriteBarrier", "runtime.wbBuf", "runtime.(*gcControllerState)",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.(*scavengerState)",
	"runtime.sweepone", "runtime.markroot", "runtime.scanobject", "runtime.scanstack",
}

func hasAnyPrefix(fn string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// ownerOf returns the layer that owns a frame, if any.
func ownerOf(fn string) (string, bool) {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		l, ok := ownedPackages[pkg]
		return l, ok
	}
	for prefix, l := range decoratorLayers {
		if strings.HasPrefix(fn, prefix) {
			return l, true
		}
	}
	return "", false
}

// layerOf attributes one sample, given its stack leaf first:
//   - any garbage-collector frame makes it runtime.gc;
//   - otherwise the innermost owned frame decides, except that runtime
//     channel/park/scheduler frames below an innermost sim frame make it
//     sim.handoff, unless the sim frame was spawning or allocating;
//   - a stack rooted at runtime.mcall is the scheduler half of a
//     goroutine switch, run on the system stack where the parking
//     goroutine's frames are not visible; the simulator's channel handoff
//     makes almost every such switch in this process, so it is
//     sim.handoff;
//   - any other stack with no owned frame is other.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if hasAnyPrefix(fn, gcPrefixes) {
			return "runtime.gc"
		}
	}
	handoff, spawnOrAlloc := false, false
	for _, fn := range stack {
		if l, ok := ownerOf(fn); ok {
			if l == "sim" && handoff && !spawnOrAlloc {
				return "sim.handoff"
			}
			return l
		}
		handoff = handoff || hasAnyPrefix(fn, handoffPrefixes)
		spawnOrAlloc = spawnOrAlloc || hasAnyPrefix(fn, notHandoffPrefixes)
	}
	if len(stack) > 0 && stack[len(stack)-1] == "runtime.mcall" {
		return "sim.handoff"
	}
	return "other"
}

// attribution is a CPU profile split by layer.
type attribution struct {
	// totalNS is the profile's sample total; selfNS sums to it exactly.
	totalNS int64
	selfNS  map[string]int64
	// leaves records where each layer's time fell: CPU nanoseconds by the
	// sample's leaf function.
	leaves map[string]map[string]int64
}

func attribute(p *cpuProfile) attribution {
	a := attribution{selfNS: map[string]int64{}, leaves: map[string]map[string]int64{}}
	for _, l := range layerNames {
		a.selfNS[l] = 0
		a.leaves[l] = map[string]int64{}
	}
	for _, s := range p.samples {
		l := layerOf(s.stack)
		a.selfNS[l] += s.ns
		a.totalNS += s.ns
		leaf := "?"
		if len(s.stack) > 0 {
			leaf = s.stack[0]
		}
		a.leaves[l][leaf] += s.ns
	}
	return a
}

// topLeaves returns a layer's n heaviest leaf functions, heaviest first.
func (a attribution) topLeaves(layer string, n int) []string {
	type kv struct {
		fn string
		ns int64
	}
	var all []kv
	for fn, ns := range a.leaves[layer] {
		all = append(all, kv{fn, ns})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].ns != all[j].ns {
			return all[i].ns > all[j].ns
		}
		return all[i].fn < all[j].fn
	})
	var out []string
	for i := 0; i < len(all) && i < n; i++ {
		out = append(out, fmt.Sprintf("%s %.3fs", all[i].fn, float64(all[i].ns)/1e9))
	}
	return out
}

// --- a minimal decoder for runtime/pprof's CPU profile -------------------
//
// The profile is a gzipped protocol buffer (github.com/google/pprof's
// profile.proto). Only the fields attribution needs are decoded: sample
// types, samples (location IDs and values), locations (their line
// records, inlined callees first) and functions (their names).

type cpuSample struct {
	stack []string // function names, leaf first, inlined frames expanded
	ns    int64
}

type cpuProfile struct {
	samples []cpuSample
}

var errProto = errors.New("malformed profile")

type protoField struct {
	num  int
	wire int
	v    uint64 // varint / fixed value
	b    []byte // length-delimited payload
}

// protoFields splits one message into its fields.
func protoFields(buf []byte) ([]protoField, error) {
	var out []protoField
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, errProto
		}
		buf = buf[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(buf)
			if n <= 0 {
				return nil, errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return nil, errProto
			}
			f.v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return nil, errProto
			}
			f.b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return nil, errProto
			}
			f.v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// uints decodes a repeated integer field, packed or not.
func (f protoField) uints(dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	if f.wire != 2 {
		return nil, errProto
	}
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// parseCPUProfile decodes a runtime/pprof CPU profile and resolves every
// sample's stack to function names.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := protoFields(raw)
	if err != nil {
		return nil, err
	}
	var (
		strs       []string
		typeNames  []uint64 // sample_type[i].type string index
		rawSamples []protoField
		locFuncs   = map[uint64][]uint64{} // location -> function IDs, leaf first
		funcNames  = map[uint64]uint64{}   // function -> name string index
	)
	for _, f := range top {
		switch {
		case f.num == 1 && f.wire == 2: // sample_type
			vt, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var typ uint64
			for _, g := range vt {
				if g.num == 1 {
					typ = g.v
				}
			}
			typeNames = append(typeNames, typ)
		case f.num == 2 && f.wire == 2:
			rawSamples = append(rawSamples, f)
		case f.num == 4 && f.wire == 2: // location
			lf, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range lf {
				switch {
				case g.num == 1:
					id = g.v
				case g.num == 4 && g.wire == 2: // line
					lines, err := protoFields(g.b)
					if err != nil {
						return nil, err
					}
					for _, h := range lines {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case f.num == 5 && f.wire == 2: // function
			ff, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range ff {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
			}
			funcNames[id] = name
		case f.num == 6 && f.wire == 2:
			strs = append(strs, string(f.b))
		}
	}
	cpuIdx := -1
	for i, t := range typeNames {
		if t < uint64(len(strs)) && strs[t] == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, fmt.Errorf("profile: no cpu sample type")
	}
	p := &cpuProfile{}
	for _, f := range rawSamples {
		sf, err := protoFields(f.b)
		if err != nil {
			return nil, err
		}
		var locs, vals []uint64
		for _, g := range sf {
			switch g.num {
			case 1:
				if locs, err = g.uints(locs); err != nil {
					return nil, err
				}
			case 2:
				if vals, err = g.uints(vals); err != nil {
					return nil, err
				}
			}
		}
		if cpuIdx >= len(vals) {
			return nil, errProto
		}
		s := cpuSample{ns: int64(vals[cpuIdx])}
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				name := "?"
				if i := funcNames[fn]; i < uint64(len(strs)) {
					name = strs[i]
				}
				s.stack = append(s.stack, name)
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

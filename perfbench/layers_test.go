package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

// protoBuf is a minimal protocol-buffer writer for building synthetic
// CPU profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(num int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *protoBuf) bytes(num int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoBuf) packed(num int, vs []uint64) {
	var q protoBuf
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(num, q.b)
}

// synthProfile encodes a CPU profile with one sample per stack. Each
// stack is a list of locations, leaf first; a location lists its
// functions, inlined callee first. Odd samples use unpacked repeated
// fields, as the runtime does for short lists.
func synthProfile(t *testing.T, stacks [][][]string, ns []int64) []byte {
	t.Helper()
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	var prof protoBuf
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m protoBuf
		m.varint(1, str(vt[0]))
		m.varint(2, str(vt[1]))
		prof.bytes(1, m.b)
	}
	funcID := map[string]uint64{}
	var locID uint64
	for i, stack := range stacks {
		var locs []uint64
		for _, loc := range stack {
			locID++
			var l protoBuf
			l.varint(1, locID)
			for _, fn := range loc {
				id, ok := funcID[fn]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[fn] = id
					var f protoBuf
					f.varint(1, id)
					f.varint(2, str(fn))
					prof.bytes(5, f.b)
				}
				var line protoBuf
				line.varint(1, id)
				l.bytes(4, line.b)
			}
			prof.bytes(4, l.b)
			locs = append(locs, locID)
		}
		var s protoBuf
		vals := []uint64{1, uint64(ns[i])}
		if i%2 == 0 {
			s.packed(1, locs)
			s.packed(2, vals)
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
			for _, v := range vals {
				s.varint(2, v)
			}
		}
		prof.bytes(2, s.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func frames(fns ...string) [][]string {
	out := make([][]string, len(fns))
	for i, fn := range fns {
		out[i] = []string{fn}
	}
	return out
}

// TestLayerMapping pins the package-to-layer rules on a fixed synthetic
// profile and checks that the layers reconcile with the sample total.
func TestLayerMapping(t *testing.T) {
	cases := []struct {
		stack [][]string
		layer string
	}{
		{frames("runtime.chanrecv", "runtime.chanrecv1", "repro/internal/sim.(*Thread).park", "repro/internal/workload.x"), "sim.handoff"},
		{frames("runtime.lock2", "runtime.send", "runtime.chansend1", "repro/internal/sim.(*World).pump", "repro/internal/cluster.(*Cluster).advanceAll.func1"), "sim.handoff"},
		{frames("runtime.schedule", "runtime.park_m", "runtime.mcall"), "sim.handoff"},
		{frames("runtime.wakep", "runtime.newproc", "repro/internal/sim.(*World).newThread"), "sim"},
		{frames("runtime.lock2", "runtime.mallocgc", "repro/internal/sim.(*World).allocThread"), "sim"},
		{frames("repro/internal/eventq.(*Queue).place", "repro/internal/sim.(*World).adjust"), "eventq"},
		{frames("repro/internal/vclock.Time.Add", "repro/internal/eventq.(*Queue).Schedule"), "eventq"},
		{frames("sort.insertionSort_func", "sort.Slice", "repro/internal/stats.(*LatencyRecorder).Percentile", "repro/internal/cluster.(*resilientRun).dispatch"), "stats"},
		{frames("container/heap.down", "repro/internal/cluster.(*resilientRun).loop"), "cluster"},
		{frames("repro/internal/fault.(*Plan).Check", "repro/internal/cluster.New"), "cluster"},
		{frames("repro/internal/workload/spec.(*Spec).Check", "repro/internal/workload.StartSpec"), "workload"},
		{frames("repro/internal/monitor.(*Monitor).Enter", "repro/internal/workload.(*Library).Touch"), "monitor"},
		{frames("repro/internal/paradigm.StartSleeper.func1", "repro/internal/sim.(*Thread).main"), "paradigm"},
		{frames("repro/internal/profile.(*Profiler).Record", "repro/internal/trace.teeSink.Record", "repro/internal/sim.(*World).record"), "profile"},
		{frames("repro/internal/trace.teeSink.Record", "repro/internal/sim.(*World).record"), "trace"},
		{frames("time.runtimeNow", "time.Now", "main.(*stopwatch).start", "main.(*countingSink).Record", "repro/internal/sim.(*World).record"), "trace"},
		{frames("repro/internal/sched.(*hybridPolicy).Level", "main.(*timedPolicy).Level", "repro/internal/sim.(*World).pushReady"), "sched"},
		{frames("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"), "runtime.gc"},
		{frames("runtime.findObject", "runtime.wbBufFlush", "gcWriteBarrier", "repro/internal/eventq.(*Queue).place"), "runtime.gc"},
		{frames("runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/stats.(*LatencyRecorder).Add"), "runtime.gc"},
		{frames("syscall.Syscall", "os.ReadFile", "main.peakRSS"), "other"},
		{frames("runtime.findRunnable", "runtime.schedule", "runtime.mstart"), "other"},
		// An inlined callee shares its caller's location: the stack is
		// expanded callee first, so sort still lands under stats.
		{[][]string{{"sort.insertionSort_func", "repro/internal/stats.(*LatencyRecorder).Percentile"}, {"repro/internal/cluster.x"}}, "stats"},
	}
	var stacks [][][]string
	var ns []int64
	want := map[string]int64{}
	var total int64
	for i, c := range cases {
		stacks = append(stacks, c.stack)
		v := int64(10_000_000 * (i + 1))
		ns = append(ns, v)
		want[c.layer] += v
		total += v
	}
	p, err := parseCPUProfile(synthProfile(t, stacks, ns))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != len(cases) {
		t.Fatalf("decoded %d samples, want %d", len(p.samples), len(cases))
	}
	for i, c := range cases {
		if got := layerOf(p.samples[i].stack); got != c.layer {
			t.Errorf("case %d %v: layer %s, want %s", i, p.samples[i].stack, got, c.layer)
		}
	}
	a := attribute(p)
	if a.totalNS != total {
		t.Fatalf("total %d, want %d", a.totalNS, total)
	}
	var sum int64
	for _, l := range layerNames {
		sum += a.selfNS[l]
		if a.selfNS[l] != want[l] {
			t.Errorf("layer %s: %d ns, want %d", l, a.selfNS[l], want[l])
		}
	}
	if sum != a.totalNS || len(a.selfNS) != len(layerNames) {
		t.Errorf("layers sum to %d over %d layers, profile total %d over %d", sum, len(a.selfNS), a.totalNS, len(layerNames))
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("parsed a non-gzip profile")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x0a, 0xff}) // a length-delimited field running past the end
	zw.Close()
	if _, err := parseCPUProfile(gz.Bytes()); err == nil {
		t.Error("parsed a truncated profile")
	}
}

package sim_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	_ "repro/internal/explore" // registers the R-series fault scenarios
	"repro/internal/paradigm"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/workload"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/trace_digests.json from current traces")

const digestFile = "testdata/trace_digests.json"

// digestSink folds every trace event into an FNV-1a hash.
type digestSink struct {
	h      hash.Hash64
	events int64
	buf    [36]byte
}

func newDigestSink() *digestSink { return &digestSink{h: fnv.New64a()} }

func (s *digestSink) Record(ev trace.Event) {
	b := s.buf[:]
	binary.LittleEndian.PutUint64(b[0:], uint64(ev.Time))
	binary.LittleEndian.PutUint32(b[8:], uint32(ev.Kind))
	binary.LittleEndian.PutUint32(b[12:], uint32(ev.Thread))
	binary.LittleEndian.PutUint64(b[16:], uint64(ev.Arg))
	binary.LittleEndian.PutUint64(b[24:], uint64(ev.Aux))
	s.h.Write(b[:32])
	s.events++
}

func (s *digestSink) Flush() error { return nil }

// note folds a non-event fact (outcome, final thread states) into the hash.
func (s *digestSink) note(format string, args ...any) {
	fmt.Fprintf(s.h, format+"\n", args...)
}

// traceDigest is one world's pinned trace fingerprint.
type traceDigest struct {
	Events int64  `json:"events"`
	Digest string `json:"digest"`
}

// digestWorld runs a built world to until, then shuts it down, hashing
// the complete event stream, the outcome, the driver's event count, and
// every thread's final state and error — before and after teardown.
func digestWorld(w *sim.World, s *digestSink, until vclock.Time) traceDigest {
	out := w.Run(until)
	s.note("outcome %v now %v events %d", out, w.Now(), w.EventsProcessed())
	threads := func() {
		w.EachThread(func(t *sim.Thread) bool {
			s.note("%s err=%v", t, t.Err())
			return true
		})
	}
	threads()
	w.Shutdown()
	threads()
	return traceDigest{Events: s.events, Digest: fmt.Sprintf("%016x", s.h.Sum64())}
}

// steer is a deterministic non-default schedule: rotate through the
// candidates by decision sequence number.
func steer(d sim.Decision) int { return int(d.Seq % int64(len(d.Candidates))) }

// traceDigests runs every pinned world and returns its fingerprint by name.
func traceDigests(t *testing.T) map[string]traceDigest {
	t.Helper()
	got := map[string]traceDigest{}
	for _, sc := range paradigm.Scenarios() {
		for _, variant := range []string{"default", "steered"} {
			s := newDigestSink()
			cfg := sim.Config{Seed: 1, Trace: s}
			if variant == "steered" {
				cfg.Hooks.OnSchedule = steer
			}
			w, _ := sc.Build(cfg)
			got["scenario/"+sc.Name+"/"+variant] = digestWorld(w, s, vclock.Time(sc.Horizon))
		}
	}

	s := newDigestSink()
	w := sim.NewWorld(sim.Config{Seed: 1, Trace: s})
	workload.StartEcho(w, workload.EchoParams{Sessions: 200, Requests: 2000, Rate: 4000, Service: 5 * vclock.Microsecond})
	got["echo/w1"] = digestWorld(w, s, vclock.Time(0).Add(10*vclock.Second))

	for _, name := range []string{"cedar", "gvx"} {
		p, err := workload.FindPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		s := newDigestSink()
		w := sim.NewWorld(sim.Config{Seed: 1, Trace: s, SystemDaemon: true})
		p.Background(w)
		got["desktop/"+name] = digestWorld(w, s, vclock.Time(0).Add(3*vclock.Second))
	}
	return got
}

// TestTraceDigests pins the full trace of every registered paradigm
// scenario (default and steered schedules), a W1 echo world and the two
// desktop preset worlds. Any change to the thread execution machinery
// must leave every digest byte-identical: the simulated program may not
// observe how its threads are run.
func TestTraceDigests(t *testing.T) {
	got := traceDigests(t)
	if *updateDigests {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]traceDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: pinned world no longer produced", name)
		case g != w:
			t.Errorf("%s: trace %+v, want %+v", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: world has no pinned digest (run with -update)", name)
		}
	}
}

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
	"strings"
	"testing"

	_ "repro/internal/explore" // registers the R-series fault scenarios
	"repro/internal/fault"
	"repro/internal/paradigm"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/workload"
	"repro/internal/workload/spec"
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
// the complete event stream, the outcome, the driver's event count, the
// report (when non-nil, rendered right after the run), and every
// thread's final state and error — before and after teardown.
func digestWorld(w *sim.World, s *digestSink, until vclock.Time, report func() string) traceDigest {
	out := w.Run(until)
	s.note("outcome %v now %v events %d", out, w.Now(), w.EventsProcessed())
	if report != nil {
		s.note("%s", report())
	}
	threads := func() {
		for _, t := range w.Threads() {
			s.note("%s err=%v", t, t.Err())
		}
	}
	threads()
	w.Shutdown()
	threads()
	return traceDigest{Events: s.events, Digest: fmt.Sprintf("%016x", s.h.Sum64())}
}

// steer is a deterministic non-default schedule: rotate through the
// candidates by decision sequence number.
func steer(d sim.Decision) int { return int(d.Seq % int64(len(d.Candidates))) }

// pcrWrapper answers exactly as pcr-rr but is not the PCRPolicy value.
type pcrWrapper struct{ sim.Policy }

// traceDigests runs every pinned world and returns its fingerprint by
// name. base is the Hooks.Policy of every world that names no policy of
// its own; when it is non-nil, the worlds that do name one are skipped.
func traceDigests(t *testing.T, base sim.Policy) map[string]traceDigest {
	t.Helper()
	got := map[string]traceDigest{}
	for _, sc := range paradigm.Scenarios() {
		for _, variant := range []string{"default", "steered"} {
			s := newDigestSink()
			cfg := sim.Config{Seed: 1, Trace: s}
			cfg.Hooks.Policy = base
			if variant == "steered" {
				cfg.Hooks.OnSchedule = steer
			}
			w, _ := sc.Build(cfg)
			got["scenario/"+sc.Name+"/"+variant] = digestWorld(w, s, vclock.Time(sc.Horizon), nil)
		}
	}

	// The echo/w1 world predates the spec pins and hashes no report.
	echo := &spec.Spec{Schema: spec.Schema, Name: "echo", Kind: spec.KindEcho,
		Cohorts: []spec.Cohort{{Name: "echo", Sessions: 200, Requests: 2000,
			Arrival: &spec.Arrival{Process: spec.ProcPoisson, Rate: 4000},
			Service: &spec.Service{Dist: spec.DistConst, MeanUS: 5}}}}
	s := newDigestSink()
	w := sim.NewWorld(sim.Config{Seed: 1, Trace: s, Hooks: sim.Hooks{Policy: base}})
	if _, err := workload.StartSpec(w, echo, workload.SpecOptions{}); err != nil {
		t.Fatal(err)
	}
	got["echo/w1"] = digestWorld(w, s, vclock.Time(0).Add(10*vclock.Second), nil)

	specs := pinnedSpecs(t)
	for name, sp := range specs {
		got["spec/"+name] = digestSpec(t, sp, base)
	}
	// Thread-scoped faults landing on w1's session threads: injected
	// crashes (a blocked victim is woken to die at its next dispatch)
	// and a stalled Compute.
	at := func(ms int64) fault.Dur { return fault.D(vclock.Duration(ms) * vclock.Millisecond) }
	for name, plan := range map[string]fault.Plan{
		"crash_thread": {CrashThread: []fault.CrashThread{
			{Thread: "echo-.*", At: at(200)},
			{Thread: "echo-.*", At: at(900)},
		}},
		"stall_thread": {StallThread: []fault.StallThread{
			{Thread: "echo-.*", At: at(200), Stall: at(30)},
		}},
	} {
		got["fault/w1/"+name] = digestFaultSpec(t, specs["w1"], base, plan)
	}
	if base == nil {
		s1 := sloLabSpec()
		for _, policy := range []string{"pcr-rr", "edf", "sjf", "hybrid"} {
			got["spec/s1/"+policy] = digestSpec(t, s1, sched.MustParse(policy))
		}
	}
	for _, name := range []string{"cedar", "gvx"} {
		p, err := workload.FindPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		s := newDigestSink()
		w := sim.NewWorld(sim.Config{Seed: 1, Trace: s, SystemDaemon: true, Hooks: sim.Hooks{Policy: base}})
		p.Background(w)
		got["desktop/"+name] = digestWorld(w, s, vclock.Time(0).Add(3*vclock.Second), nil)
	}
	return got
}

// pinnedSpecs returns the shipped W-series specs at the experiments'
// quick scale.
func pinnedSpecs(t *testing.T) map[string]*spec.Spec {
	t.Helper()
	scale := map[string]func(*spec.Spec){
		"w1": func(sp *spec.Spec) {
			sp.Cohorts[0].Sessions = 1000
			sp.Cohorts[0].Requests = 10_000
		},
		"w2": func(sp *spec.Spec) {
			sp.Pipeline.Pipelines = 16
			sp.Pipeline.Requests = 5000
		},
		"w3": func(sp *spec.Spec) {
			sp.Cohorts[0].Sessions = 64
			sp.Cohorts[0].Requests = 8000
			sp.Batch.Workers = 16
			sp.HorizonUS = (10 * vclock.Second).Micros()
		},
	}
	out := map[string]*spec.Spec{}
	for name, f := range scale {
		sp, err := spec.Shipped(name)
		if err != nil {
			t.Fatal(err)
		}
		f(sp)
		out[name] = sp
	}
	return out
}

// sloLabSpec is the S1 policy-lab workload at quick scale: interactive
// and bulk SLO cohorts over a four-worker batch pool.
func sloLabSpec() *spec.Spec {
	cohort := func(name string, sessions int, requests int64, rate float64, serviceUS, sloUS int64, prio string) spec.Cohort {
		return spec.Cohort{Name: name, Sessions: sessions, Requests: requests,
			Arrival:  &spec.Arrival{Process: spec.ProcPoisson, Rate: rate},
			Service:  &spec.Service{Dist: spec.DistConst, MeanUS: serviceUS},
			Priority: prio, SLOUS: sloUS}
	}
	return &spec.Spec{Schema: spec.Schema, Name: "s1-policy-lab", Kind: spec.KindSLO,
		HorizonUS: (8 * vclock.Second).Micros(),
		Batch:     &spec.Batch{Workers: 4, ChunkUS: 5000, SLOUS: 50_000, Priority: "background"},
		Cohorts: []spec.Cohort{
			cohort("interactive", 16, 2800, 450, 1000, 25_000, "high"),
			cohort("bulk", 8, 600, 100, 2000, 100_000, "normal"),
		}}
}

// digestSpec compiles sp through StartSpec into a fresh world under
// policy (nil for the default) at seed 1 and digests its run to the
// spec's horizon, folding the run's stats rendering into the hash.
func digestSpec(t *testing.T, sp *spec.Spec, policy sim.Policy) traceDigest {
	t.Helper()
	s := newDigestSink()
	cfg := sim.Config{Seed: 1, Trace: s, SystemDaemon: sp.SystemDaemon}
	cfg.Hooks.Policy = policy
	w := sim.NewWorld(cfg)
	run, err := workload.StartSpec(w, sp, workload.SpecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return digestWorld(w, s, vclock.Time(0).Add(run.Horizon), func() string { return specReport(run) })
}

// digestFaultSpec is digestSpec with plan's injector configured into
// the world; the injector's counts are hashed with the run.
func digestFaultSpec(t *testing.T, sp *spec.Spec, policy sim.Policy, plan fault.Plan) traceDigest {
	t.Helper()
	inj, err := fault.New(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := newDigestSink()
	cfg := sim.Config{Seed: 1, Trace: s}
	cfg.Hooks.Policy = policy
	inj.Configure(&cfg)
	w := sim.NewWorld(cfg)
	inj.Arm(w)
	run, err := workload.StartSpec(w, sp, workload.SpecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return digestWorld(w, s, vclock.Time(0).Add(run.Horizon), func() string {
		return fmt.Sprintf("%s\ncounts %+v", specReport(run), inj.Counts())
	})
}

// specReport renders a finished run's stats: the per-class SLO lines
// for the slo kind, LoadStats.String otherwise.
func specReport(run *workload.SpecRun) string {
	if run.SLO == nil {
		return run.Load().String()
	}
	st := run.SLO.Finish()
	var b strings.Builder
	fmt.Fprintf(&b, "threads=%d\n", st.Threads)
	for _, class := range st.Classes() {
		lat := "n=0"
		if r := st.Latency.Class(class); r != nil {
			lat = r.String()
		}
		fmt.Fprintf(&b, "%s off=%d done=%d ontime=%d lat[%s]\n",
			class, st.Offered[class], st.Completed[class], st.OnTime[class], lat)
	}
	return b.String()
}

// TestTraceDigests pins the full trace of every registered paradigm
// scenario (default and steered schedules), a W1 echo world, the two
// desktop preset worlds, and worlds compiled through workload.StartSpec:
// the shipped W-series specs, the S1 SLO lab under four policies, and
// W1 under thread-scoped crash and stall faults. Any change to the thread execution machinery
// must leave every digest byte-identical: the simulated program may not
// observe how its threads are run.
func TestTraceDigests(t *testing.T) {
	got := traceDigests(t, nil)
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
	want := pinnedDigests(t)
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

// TestTraceDigestsUnderPCRWrapper reruns every world that names no
// policy with a wrapper of pcr-rr that the dispatcher cannot recognize
// by identity, and requires the pinned digests: pcr-rr's meaning lives
// in its answers, not in which value gives them.
func TestTraceDigestsUnderPCRWrapper(t *testing.T) {
	want := pinnedDigests(t)
	got := traceDigests(t, pcrWrapper{sim.PCRPolicy})
	if len(got) == 0 {
		t.Fatal("no worlds digested")
	}
	for name, g := range got {
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: world has no pinned digest", name)
		case g != w:
			t.Errorf("%s: trace %+v under the wrapper, want %+v", name, g, w)
		}
	}
}

// pinnedDigests reads digestFile.
func pinnedDigests(t *testing.T) map[string]traceDigest {
	t.Helper()
	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]traceDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

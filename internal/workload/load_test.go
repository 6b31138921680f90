package workload

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/vclock"
	"repro/internal/workload/spec"
)

// echoSpec is a quick-scale W1 document: 200 sessions serving 2000
// requests of 5us at 4000 req/s.
func echoSpec(sessions int) *spec.Spec {
	return &spec.Spec{Schema: spec.Schema, Name: "echo", Kind: spec.KindEcho,
		Cohorts: []spec.Cohort{{Name: "echo", Sessions: sessions, Requests: 2000,
			Arrival: &spec.Arrival{Process: spec.ProcPoisson, Rate: 4000},
			Service: &spec.Service{Dist: spec.DistConst, MeanUS: 5}}}}
}

// startTestSpec compiles sp into a fresh world; the caller shuts it down.
func startTestSpec(t *testing.T, sp *spec.Spec, cfg sim.Config) (*sim.World, *SpecRun) {
	t.Helper()
	w := sim.NewWorld(cfg)
	run, err := StartSpec(w, sp, SpecOptions{})
	if err != nil {
		w.Shutdown()
		t.Fatalf("StartSpec(%s): %v", sp.Name, err)
	}
	return w, run
}

// runEcho drives one quick-scale W1 world to quiescence.
func runEcho(t *testing.T, seed int64) *LoadStats {
	t.Helper()
	w, run := startTestSpec(t, echoSpec(200), sim.Config{Seed: seed})
	defer w.Shutdown()
	if got := w.Run(vclock.Time(0).Add(10 * vclock.Second)); got != sim.OutcomeQuiescent {
		t.Fatalf("echo run ended %v, want quiescent", got)
	}
	return run.Load()
}

func TestEchoServesOfferedLoad(t *testing.T) {
	s := runEcho(t, 1)
	if s.Offered != 2000 || s.Completed != 2000 {
		t.Fatalf("offered=%d completed=%d, want 2000/2000", s.Offered, s.Completed)
	}
	if s.Threads != 200 {
		t.Fatalf("threads = %d, want 200", s.Threads)
	}
	if s.Latency.Count() != 2000 {
		t.Fatalf("latency samples = %d, want 2000", s.Latency.Count())
	}
	// Every latency includes at least the service time.
	if min := s.Latency.Percentile(0); min < 5*vclock.Microsecond {
		t.Fatalf("min latency %v < service time", min)
	}
	if s.Window <= 0 || s.Throughput() <= 0 {
		t.Fatalf("window=%v throughput=%v", s.Window, s.Throughput())
	}
}

func TestEchoDeterministic(t *testing.T) {
	a, b := runEcho(t, 7), runEcho(t, 7)
	if a.String() != b.String() {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	c := runEcho(t, 8)
	if a.String() == c.String() {
		t.Fatalf("different seeds produced identical stats: %s", a)
	}
}

func TestPipelineServesOfferedLoad(t *testing.T) {
	sp := &spec.Spec{Schema: spec.Schema, Name: "pipe", Kind: spec.KindPipeline,
		Pipeline: &spec.Pipeline{Pipelines: 8, Stages: 4, Buffer: 4, Requests: 1000, Rate: 1000, StageCostUS: 10}}
	w, run := startTestSpec(t, sp, sim.Config{Seed: 1})
	defer w.Shutdown()
	if got := w.Run(vclock.Time(0).Add(20 * vclock.Second)); got != sim.OutcomeQuiescent {
		t.Fatalf("pipeline run ended %v, want quiescent (shutdown must ripple down the stages)", got)
	}
	s := run.Load()
	if s.Offered != 1000 || s.Completed != 1000 {
		t.Fatalf("offered=%d completed=%d, want 1000/1000", s.Offered, s.Completed)
	}
	if s.Threads != 8*4 {
		t.Fatalf("threads = %d, want 32", s.Threads)
	}
	// Four stages of compute bound the minimum end-to-end latency.
	if min := s.Latency.Percentile(0); min < 4*10*vclock.Microsecond {
		t.Fatalf("min latency %v < 4 stage costs", min)
	}
}

func TestMixedKeepsInteractiveFast(t *testing.T) {
	sp := &spec.Spec{Schema: spec.Schema, Name: "mixed", Kind: spec.KindMixed, SystemDaemon: true,
		Cohorts: []spec.Cohort{{Name: "interactive", Sessions: 32, Requests: 1500,
			Arrival: &spec.Arrival{Process: spec.ProcPoisson, Rate: 1500},
			Service: &spec.Service{Dist: spec.DistConst, MeanUS: 50}}},
		Batch:     &spec.Batch{Workers: 8, ChunkUS: 200},
		HorizonUS: (5 * vclock.Second).Micros()}
	w, run := startTestSpec(t, sp, sim.Config{Seed: 1, SystemDaemon: true})
	defer w.Shutdown()
	w.Run(vclock.Time(0).Add(run.Horizon))
	s := run.Load()
	if s.Completed != 1500 {
		t.Fatalf("interactive completed = %d, want 1500 (batch pool must not starve PriorityHigh)", s.Completed)
	}
	if s.Threads != 32+8 {
		t.Fatalf("threads = %d, want both populations (40)", s.Threads)
	}
	if run.Batch.Chunks == 0 {
		t.Fatal("batch pool made no progress")
	}
	// Strict priority: interactive p95 stays within a few batch chunks
	// even though the batch pool would soak every cycle.
	if p95 := s.Latency.Percentile(0.95); p95 > 5*vclock.Millisecond {
		t.Fatalf("interactive p95 = %v under batch load", p95)
	}
}

func TestEchoParamValidation(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 1})
	defer w.Shutdown()
	if _, err := StartSpec(w, echoSpec(0), SpecOptions{}); !errors.Is(err, spec.ErrInvalidSpec) {
		t.Fatalf("StartSpec on a zero-session echo spec: err = %v, want ErrInvalidSpec", err)
	}
}

// Building a session pool costs a few allocations in all, not a set per
// session: the sessions share one slab, each session is its own thread
// body, and a stackless thread holds no coroutine and binds its timer
// callbacks only when it first needs them.
func TestServerBuildAllocs(t *testing.T) {
	const sessions = 1000
	names := NewNameTable("echo", sessions)
	allocs := testing.AllocsPerRun(5, func() {
		startServer(sim.NewWorld(sim.Config{Seed: 1}), names, sessions, sim.PriorityNormal)
	})
	if per := allocs / sessions; per >= 0.25 {
		t.Errorf("building a %d-session pool: %.0f allocs (%.3f per session), want < 0.25", sessions, allocs, per)
	}
	if n := unsafe.Sizeof(srvSession{}); n > 48 {
		t.Errorf("srvSession is %d bytes, want at most 48", n)
	}
	// A Server embeds its LatencyRecorder: 8 bytes more would move every
	// pool from the 288-byte allocation class to the 320-byte one.
	if n := unsafe.Sizeof(Server{}); n > 288 {
		t.Errorf("Server is %d bytes, want at most 288", n)
	}
}

// A crash while a session is computing keeps the request in service:
// its completion reports it undelivered, the request queued behind it
// is dropped at the crash, and the session goes on to serve what
// arrives after the restore.
func TestServerCrashMidService(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 1, SwitchCost: -1})
	defer w.Shutdown()
	s := startServer(w, NewNameTable("s", 1), 1, sim.PriorityNormal)
	at := func(us int64, f func()) { w.At(vclock.Time(us), f) }
	at(100, func() {
		s.InjectTracked(0, 100*vclock.Microsecond, 1) // in service over [100us, 200us)
		s.InjectTracked(0, 100*vclock.Microsecond, 2) // queued behind it
	})
	at(150, s.Crash)
	at(160, s.Restore)
	at(170, func() { s.InjectTracked(0, 10*vclock.Microsecond, 3) })
	w.Run(vclock.Time(1000))
	want := []Completion{{Token: 2, At: 150}, {Token: 1, At: 200}, {Token: 3, At: 210, OK: true}}
	if got := s.Drain(); !reflect.DeepEqual(got, want) {
		t.Errorf("completions %+v, want %+v", got, want)
	}
	if th := s.sessions[0].th; th.Err() != nil || th.State() != sim.StateBlocked {
		t.Errorf("session %v err=%v, want blocked and healthy", th, th.Err())
	}
	if s.Pending() != 0 || s.Dropped() != 1 || s.Undelivered() != 1 {
		t.Errorf("pending %d dropped %d undelivered %d, want 0 1 1", s.Pending(), s.Dropped(), s.Undelivered())
	}
}

// Drain alternates two buffers. Two drains in a row return each batch
// once, in completion order, and the third drain returns the first
// drain's buffer again, holding every completion recorded since.
func TestServerDrainAlternatesBuffers(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 1, SwitchCost: -1})
	defer w.Shutdown()
	s := startServer(w, NewNameTable("s", 1), 1, sim.PriorityNormal)
	batch := func(at int64, tokens ...uint64) []Completion {
		w.At(vclock.Time(at), func() {
			for _, tok := range tokens {
				s.InjectTracked(0, 10*vclock.Microsecond, tok)
			}
		})
		w.Run(vclock.Time(at + 1000))
		return s.Drain()
	}
	check := func(name string, got []Completion, tokens ...uint64) {
		t.Helper()
		if len(got) != len(tokens) {
			t.Fatalf("%s drain: %+v, want tokens %v", name, got, tokens)
		}
		for i, cp := range got {
			if cp.Token != tokens[i] || !cp.OK || i > 0 && cp.At < got[i-1].At {
				t.Fatalf("%s drain: %+v, want tokens %v in completion order", name, got, tokens)
			}
		}
	}
	first := batch(100, 1, 2, 3)
	check("first", first, 1, 2, 3)
	firstBuf := &first[0]
	second := batch(2000, 4, 5)
	check("second", second, 4, 5)
	if &second[0] == firstBuf {
		t.Fatal("the second drain reused the first drain's buffer")
	}
	third := batch(4000, 6, 7, 8)
	check("third", third, 6, 7, 8)
	if &third[0] != firstBuf {
		t.Error("the third drain did not reuse the first drain's buffer")
	}
	if got := s.Drain(); len(got) != 0 {
		t.Errorf("a drain with nothing completed returned %+v", got)
	}
}

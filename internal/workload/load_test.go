package workload

import (
	"errors"
	"testing"

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

package sim_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// The step-form oracle: a Stepper body must be indistinguishable from
// the Proc running the same sequence of sim calls, in every observable
// the simulator has — trace stream, thread errors, event counts, final
// states — with faults and teardown landing at arbitrary points.

// scriptOp is one sim call of a generated thread body.
type scriptOp struct {
	kind int // opCompute, opBlock or opIO
	d    vclock.Duration
}

const (
	opCompute = iota
	opBlock
	opIO
)

// do issues the call. A zero duration is legal and parks nowhere.
func (op scriptOp) do(t *sim.Thread) {
	switch op.kind {
	case opCompute:
		t.Compute(op.d)
	case opBlock:
		t.Block(sim.BlockCV)
	default:
		t.BlockIO(op.d)
	}
}

// scriptStep runs a script as a Stepper: each step issues calls until
// one arms a park.
type scriptStep struct {
	ops []scriptOp
	pc  int
}

func (s *scriptStep) Step(t *sim.Thread) bool {
	for s.pc < len(s.ops) {
		op := s.ops[s.pc]
		s.pc++
		op.do(t)
		if t.Parked() {
			return true
		}
	}
	return false
}

// scriptProc runs a script as a Proc.
func scriptProc(ops []scriptOp) sim.Proc {
	return func(t *sim.Thread) any {
		for _, op := range ops {
			op.do(t)
		}
		return nil
	}
}

// driverOp is one driver-context intervention: wake or kill thread
// th at time at.
type driverOp struct {
	at   vclock.Time
	th   int
	kill bool
}

// script is a generated world: thread bodies, their priorities, and
// the driver's interventions.
type script struct {
	bodies  [][]scriptOp
	prios   []sim.Priority
	drivers []driverOp
}

func randomScript(rng *rand.Rand) script {
	var sc script
	n := 1 + rng.Intn(5)
	for i := 0; i < n; i++ {
		ops := make([]scriptOp, rng.Intn(12))
		for j := range ops {
			ops[j] = scriptOp{kind: rng.Intn(3), d: vclock.Duration(rng.Intn(4) * rng.Intn(150))}
		}
		sc.bodies = append(sc.bodies, ops)
		sc.prios = append(sc.prios, sim.Priority(3+rng.Intn(3)))
	}
	for k := rng.Intn(20); k > 0; k-- {
		sc.drivers = append(sc.drivers, driverOp{
			at:   vclock.Time(rng.Intn(3000)),
			th:   rng.Intn(n),
			kill: rng.Intn(6) == 0,
		})
	}
	return sc
}

// recordSink keeps every trace event.
type recordSink struct{ evs []trace.Event }

func (s *recordSink) Record(ev trace.Event) { s.evs = append(s.evs, ev) }
func (s *recordSink) Flush() error          { return nil }

// scriptResult is everything a run lets an observer see.
type scriptResult struct {
	Trace   []trace.Event
	Outcome sim.Outcome
	Events  int64
	Threads []string // state and error per thread, after the run and after Shutdown
}

// runScript runs sc with thread i in step form when stepped(i).
func runScript(sc script, cpus int, stepped func(i int) bool) scriptResult {
	sink := &recordSink{}
	w := sim.NewWorld(sim.Config{CPUs: cpus, Seed: 1, Trace: sink, Quantum: 200 * vclock.Microsecond})
	ths := make([]*sim.Thread, len(sc.bodies))
	for i, ops := range sc.bodies {
		name := fmt.Sprintf("s%d", i)
		if stepped(i) {
			ths[i] = w.SpawnStep(name, sc.prios[i], &scriptStep{ops: ops})
		} else {
			ths[i] = w.Spawn(name, sc.prios[i], scriptProc(ops))
		}
	}
	for _, d := range sc.drivers {
		d := d
		w.At(d.at, func() {
			if d.kill {
				w.KillThread(ths[d.th], fmt.Sprintf("kill %d", d.th))
			} else {
				w.WakeIfBlocked(ths[d.th], nil)
			}
		})
	}
	var r scriptResult
	r.Outcome = w.Run(vclock.Time(4000))
	r.Events = w.EventsProcessed()
	states := func() {
		for _, th := range ths {
			r.Threads = append(r.Threads, fmt.Sprintf("%v err=%v", th, th.Err()))
		}
	}
	states()
	w.Shutdown()
	states()
	r.Trace = sink.evs
	return r
}

// TestStepMatchesProc runs random scripts as Procs, as Steppers, and
// with the two forms mixed in one world, on one and two CPUs: every
// observable must be identical.
func TestStepMatchesProc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	forms := map[string]func(int) bool{
		"step":  func(int) bool { return true },
		"mixed": func(i int) bool { return i%2 == 1 },
	}
	for n := 0; n < 300; n++ {
		sc := randomScript(rng)
		for _, cpus := range []int{1, 2} {
			want := runScript(sc, cpus, func(int) bool { return false })
			for name, stepped := range forms {
				if got := runScript(sc, cpus, stepped); !reflect.DeepEqual(got, want) {
					t.Fatalf("script %d on %d CPU(s): %s form diverges from proc form\n got %+v\nwant %+v",
						n, cpus, name, got, want)
				}
			}
		}
	}
}

// stepFunc adapts a function to Stepper.
type stepFunc func(t *sim.Thread) bool

func (f stepFunc) Step(t *sim.Thread) bool { return f(t) }

// TestStepMisuse: a step that calls what only a Proc may call, parks
// twice, or misreports its park dies of a PanicError naming it, and
// leaves the world to quiesce.
func TestStepMisuse(t *testing.T) {
	const name = "misuser"
	cases := map[string]func(w *sim.World, other *sim.Thread) stepFunc{
		"Yield": func(*sim.World, *sim.Thread) stepFunc {
			return func(t *sim.Thread) bool { t.Yield(); return true }
		},
		"YieldButNotToMe": func(*sim.World, *sim.Thread) stepFunc {
			return func(t *sim.Thread) bool { t.YieldButNotToMe(); return true }
		},
		"DirectedYield": func(_ *sim.World, other *sim.Thread) stepFunc {
			return func(t *sim.Thread) bool { t.DirectedYield(other); return true }
		},
		"Fork": func(*sim.World, *sim.Thread) stepFunc {
			return func(t *sim.Thread) bool { t.Fork("child", func(*sim.Thread) any { return nil }); return true }
		},
		"Join": func(_ *sim.World, other *sim.Thread) stepFunc {
			return func(t *sim.Thread) bool { t.Join(other); return true }
		},
		"Sleep": func(*sim.World, *sim.Thread) stepFunc {
			return func(t *sim.Thread) bool { t.Sleep(vclock.Millisecond); return true }
		},
		"BlockTimed": func(*sim.World, *sim.Thread) stepFunc {
			return func(t *sim.Thread) bool { t.BlockTimed(sim.BlockCV, vclock.Millisecond); return true }
		},
		"SetPriority": func(*sim.World, *sim.Thread) stepFunc {
			return func(t *sim.Thread) bool { t.SetPriority(sim.PriorityHigh); return true }
		},
		"two blocks": func(*sim.World, *sim.Thread) stepFunc {
			return func(t *sim.Thread) bool { t.Block(sim.BlockCV); t.Block(sim.BlockCV); return true }
		},
		"I/O then compute": func(*sim.World, *sim.Thread) stepFunc {
			return func(t *sim.Thread) bool { t.BlockIO(vclock.Millisecond); t.Compute(vclock.Millisecond); return true }
		},
		"two computes": func(w *sim.World, _ *sim.Thread) stepFunc {
			// A driver event inside the demand keeps Compute off its
			// in-place fast path, so the first call really parks.
			w.At(vclock.Time(0).Add(200*vclock.Microsecond), func() {})
			return func(t *sim.Thread) bool { t.Compute(vclock.Millisecond); t.Compute(vclock.Millisecond); return true }
		},
		"parked with nothing armed": func(*sim.World, *sim.Thread) stepFunc {
			return func(t *sim.Thread) bool { return true }
		},
		"done with a park armed": func(*sim.World, *sim.Thread) stepFunc {
			return func(t *sim.Thread) bool { t.BlockIO(vclock.Millisecond); return false }
		},
	}
	for op, build := range cases {
		t.Run(op, func(t *testing.T) {
			w := sim.NewWorld(sim.Config{Seed: 1})
			defer w.Shutdown()
			other := w.Spawn("other", sim.PriorityLow, func(t *sim.Thread) any { t.Compute(vclock.Millisecond); return nil })
			th := w.SpawnStep(name, sim.PriorityNormal, build(w, other))
			if out := w.Run(vclock.Time(0).Add(vclock.Second)); out != sim.OutcomeQuiescent {
				t.Errorf("outcome %v, want quiescent", out)
			}
			var pe *sim.PanicError
			if !errors.As(th.Err(), &pe) || pe.Thread != name {
				t.Fatalf("thread error %v, want a PanicError of %s", th.Err(), name)
			}
			if msg := fmt.Sprint(pe.Value); !strings.Contains(msg, name) {
				t.Errorf("panic %q does not name the thread", msg)
			}
			if th.State() != sim.StateDead {
				t.Errorf("thread %v, want dead", th)
			}
		})
	}
}

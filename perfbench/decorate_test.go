package main

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestNeverWrapsFastPaths pins the guard: the simulator recognizes
// trace.Discard and sim.PCRPolicy by identity, so the traced run must
// hand them through untouched.
func TestNeverWrapsFastPaths(t *testing.T) {
	d := &decorators{}
	made := decoratorsMade.Load()
	if s := d.wrapSink(trace.Discard); s != trace.Discard {
		t.Errorf("wrapSink(trace.Discard) = %T", s)
	}
	if s := d.wrapSink(nil); s != nil {
		t.Errorf("wrapSink(nil) = %T", s)
	}
	if p := d.wrapPolicy(sim.PCRPolicy); p != sim.PCRPolicy {
		t.Errorf("wrapPolicy(sim.PCRPolicy) = %T", p)
	}
	if p := d.wrapPolicy(sched.MustParse("pcr-rr")); p != sim.PCRPolicy {
		t.Errorf("wrapPolicy(pcr-rr) = %T", p)
	}
	if p := d.wrapPolicy(nil); p != nil {
		t.Errorf("wrapPolicy(nil) = %T", p)
	}
	if got := decoratorsMade.Load() - made; got != 0 {
		t.Errorf("%d decorators built for fast-path values", got)
	}
	if s := d.wrapSink(&trace.Buffer{}); s == trace.Discard {
		t.Error("an observing sink was not wrapped")
	}
}

// TestDecoratorsOnlyWhenTraced runs one iteration of every workload each
// way: the untraced run builds no decorator at all, the traced run wraps
// exactly the observing sinks and non-default policies, and both produce
// the same simulated output.
func TestDecoratorsOnlyWhenTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	want := map[string]int64{
		"echo-fleet":      0,                                        // tracing off, pcr-rr
		"desktop":         2 * int64(len(workload.AllBenchmarks())), // collector + profiler per world
		"fleet-resilient": 0,
		"slo-hybrid":      sloWorlds, // one hybrid policy per world
	}
	for _, w := range scenarios {
		made := decoratorsMade.Load()
		plain, err := iterate(w, 1, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if got := decoratorsMade.Load() - made; got != 0 {
			t.Errorf("%s: untraced iteration built %d decorators", w.name, got)
		}
		made = decoratorsMade.Load()
		traced, err := iterate(w, 1, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if got := decoratorsMade.Load() - made; got != want[w.name] {
			t.Errorf("%s: traced iteration built %d decorators, want %d", w.name, got, want[w.name])
		}
		if plain.out.digest != traced.out.digest || plain.events != traced.events {
			t.Errorf("%s: tracing changed the output: %s/%d vs %s/%d",
				w.name, plain.out.digest, plain.events, traced.out.digest, traced.events)
		}
		if len(plain.out.problems) > 0 {
			t.Errorf("%s: %v", w.name, plain.out.problems)
		}
	}
}

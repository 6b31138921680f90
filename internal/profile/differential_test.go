package profile_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// The differential: the online Profiler must agree with the reference
// profiler (reference_test.go) field by field on every world below, and
// with a replay of the same run through the binary trace codec.

// run is one profiled world: the online profile, the world's full event
// stream and what a replay needs to reproduce it.
type run struct {
	label     string
	online    *profile.Profile
	events    []trace.Event
	names     map[int32]string
	cpus      int
	keepSpans bool
}

// check compares r.online with the reference replay of r.events and
// with a replay of the events after WriteTrace → ReadTrace through a
// fresh profile.New(r.cpus).
func (r run) check(t *testing.T) {
	t.Helper()
	ref := replay(r.events, r.cpus, r.keepSpans, r.online.End)
	ref.ApplyNames(r.names)
	if d := diffProfiles(r.online, ref); len(d) > 0 {
		t.Errorf("%s: online profile differs from the reference:\n  %s", r.label, strings.Join(d, "\n  "))
	}

	var buf bytes.Buffer
	if err := trace.WriteTrace(&buf, trace.Trace{Events: r.events, Names: r.names}); err != nil {
		t.Fatalf("%s: WriteTrace: %v", r.label, err)
	}
	tr, err := trace.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("%s: ReadTrace: %v", r.label, err)
	}
	p := profile.New(r.cpus)
	p.KeepSpans = r.keepSpans
	for _, ev := range tr.Events {
		p.Record(ev)
	}
	again := p.Finish(r.online.End)
	again.ApplyNames(tr.Names)
	if d := diffProfiles(again, r.online); len(d) > 0 {
		t.Errorf("%s: decoded-trace replay differs from the online profile:\n  %s", r.label, strings.Join(d, "\n  "))
	}
}

// checkExact is check plus the accounting identity: zero residue.
func (r run) checkExact(t *testing.T) {
	t.Helper()
	r.check(t)
	if res := r.online.Residue(); res != 0 {
		t.Errorf("%s: residue %v, want 0", r.label, res)
	}
}

// threadNames returns w's thread-name table.
func threadNames(w *sim.World) map[int32]string {
	names := map[int32]string{}
	for _, th := range w.Threads() {
		if th.Name() != "" {
			names[th.ID()] = th.Name()
		}
	}
	return names
}

// profiled builds a world with cfg, an online profiler and an event
// buffer attached through Hooks.OnWorld, lets populate start it, runs it
// to until, and returns the run.
func profiled(label string, cfg sim.Config, keepSpans bool, until vclock.Time, populate func(w *sim.World)) run {
	p := profile.New(cfg.CPUs)
	p.KeepSpans = keepSpans
	var buf trace.Buffer
	cfg.Hooks.OnWorld = func(*sim.World) trace.Sink { return trace.Tee(p, &buf) }
	w := sim.NewWorld(cfg)
	populate(w)
	w.Run(until)
	w.Shutdown()
	prof := p.Finish(w.Now())
	names := threadNames(w)
	prof.ApplyNames(names)
	return run{label: label, online: prof, events: buf.Events, names: names, cpus: cfg.CPUs, keepSpans: keepSpans}
}

func TestReferenceFixture(t *testing.T) {
	prof, _, events := fixtureWorld(t)
	run{label: "fixture", online: prof, events: events, names: prof.Names, cpus: 1, keepSpans: true}.checkExact(t)
}

// TestReferenceBenchmarks profiles a world for each of the twelve Table
// 1–3 benchmarks on 1, 2 and 4 CPUs, alternately with spans.
func TestReferenceBenchmarks(t *testing.T) {
	for i, b := range workload.AllBenchmarks() {
		cpus := []int{1, 2, 4}[i%3]
		keepSpans := i%2 == 0
		var p *profile.Profiler
		var world *sim.World
		var buf trace.Buffer
		workload.Run(b, workload.RunConfig{
			Window: 2 * vclock.Second,
			Seed:   int64(i + 1),
			CPUs:   cpus,
			Hooks: sim.Hooks{OnWorld: func(w *sim.World) trace.Sink {
				world, p = w, profile.New(cpus)
				p.KeepSpans = keepSpans
				return trace.Tee(p, &buf)
			}},
		})
		prof := p.Finish(world.Now())
		names := threadNames(world)
		prof.ApplyNames(names)
		label := fmt.Sprintf("%s/%s cpus=%d", b.System, b.Name, cpus)
		run{label: label, online: prof, events: buf.Events, names: names, cpus: cpus, keepSpans: keepSpans}.checkExact(t)
	}
}

// scriptOp is one step of a generated thread body.
type scriptOp struct {
	kind     int
	d        vclock.Duration
	mon, cv  int
	pri      sim.Priority
	explicit bool // monitor section by Enter/Exit instead of With
}

const (
	opCompute = iota
	opSleep
	opIO
	opYield
	opYieldButNotToMe
	opSetPriority
	opFork
	opSection // enter a monitor, compute, maybe wait, signal, exit
	opWaitSection
	opNotifySection
	opBroadcastSection
	numOps
)

// randomScriptWorld generates and profiles a world of random thread
// scripts over monitors and CVs, with thread kills at random instants:
// preemption, yields, priority changes (priority inheritance included),
// fork exhaustion, timed and untimed CV waits and kill-unwound holds.
func randomScriptWorld(seed int64) run {
	rng := rand.New(rand.NewSource(seed))
	cfg := sim.Config{
		CPUs:               1 + rng.Intn(3),
		Seed:               seed,
		Quantum:            vclock.Duration(100+rng.Intn(3000)) * vclock.Microsecond,
		TimeoutGranularity: vclock.Microsecond,
		SystemDaemon:       rng.Intn(3) == 0,
	}
	if rng.Intn(4) == 0 {
		cfg.SwitchCost = -1
	}
	if rng.Intn(4) == 0 {
		cfg.MaxThreads = 3 + rng.Intn(4)
	}
	dur := func() vclock.Duration { return vclock.Duration(rng.Intn(4) * rng.Intn(1500)) }
	nMon := 1 + rng.Intn(3)
	inherit := make([]bool, nMon)
	timeouts := make([][]vclock.Duration, nMon)
	for m := range timeouts {
		inherit[m] = rng.Intn(2) == 0
		for c := 0; c < 1+rng.Intn(2); c++ {
			timeouts[m] = append(timeouts[m], vclock.Duration(rng.Intn(3))*dur())
		}
	}
	genOps := func(n int) []scriptOp {
		ops := make([]scriptOp, n)
		for j := range ops {
			m := rng.Intn(nMon)
			ops[j] = scriptOp{kind: rng.Intn(numOps), d: dur(), mon: m, cv: rng.Intn(len(timeouts[m])),
				pri: sim.Priority(2 + rng.Intn(5)), explicit: rng.Intn(2) == 0}
		}
		return ops
	}
	type threadPlan struct {
		pri  sim.Priority
		ops  []scriptOp
		kids [][]scriptOp
	}
	plans := make([]threadPlan, 1+rng.Intn(6))
	for i := range plans {
		plans[i] = threadPlan{pri: sim.Priority(2 + rng.Intn(5)), ops: genOps(rng.Intn(16))}
		for range plans[i].ops {
			plans[i].kids = append(plans[i].kids, genOps(rng.Intn(4)))
		}
	}
	type kill struct {
		at     vclock.Time
		victim int
	}
	var kills []kill
	for k := rng.Intn(4); k > 0; k-- {
		kills = append(kills, kill{vclock.Time(rng.Intn(30000)), rng.Intn(len(plans))})
	}
	until := vclock.Time(40 * vclock.Millisecond)
	label := fmt.Sprintf("script seed=%d cpus=%d", seed, cfg.CPUs)
	return profiled(label, cfg, seed%2 == 0, until, func(w *sim.World) {
		mons := make([]*monitor.Monitor, nMon)
		cvs := make([][]*monitor.Cond, nMon)
		for m := range mons {
			mons[m] = monitor.NewWithOptions(w, fmt.Sprintf("m%d", m), monitor.Options{PriorityInheritance: inherit[m]})
			for c, to := range timeouts[m] {
				cvs[m] = append(cvs[m], mons[m].NewCondTimeout(fmt.Sprintf("m%d.c%d", m, c), to))
			}
		}
		var body func(ops []scriptOp, kids [][]scriptOp) sim.Proc
		body = func(ops []scriptOp, kids [][]scriptOp) sim.Proc {
			return func(t *sim.Thread) any {
				for j, op := range ops {
					m, c := mons[op.mon], cvs[op.mon][op.cv]
					inside := func() {
						t.Compute(op.d)
						switch op.kind {
						case opWaitSection:
							c.Wait(t)
						case opNotifySection:
							c.Notify(t)
						case opBroadcastSection:
							c.Broadcast(t)
						}
					}
					switch op.kind {
					case opCompute:
						t.Compute(op.d)
					case opSleep:
						t.Sleep(op.d)
					case opIO:
						t.BlockIO(op.d)
					case opYield:
						t.Yield()
					case opYieldButNotToMe:
						t.YieldButNotToMe()
					case opSetPriority:
						t.SetPriority(op.pri)
					case opFork: // a child's own forks start empty threads
						t.ForkPri(fmt.Sprintf("%s.%d", t.Name(), j), op.pri, body(kids[j], make([][]scriptOp, len(kids[j]))))
					default:
						if op.explicit {
							m.Enter(t)
							inside()
							m.Exit(t)
						} else {
							m.With(t, inside)
						}
					}
				}
				return nil
			}
		}
		ths := make([]*sim.Thread, len(plans))
		for i, pl := range plans {
			ths[i] = w.Spawn(fmt.Sprintf("s%d", i), pl.pri, body(pl.ops, pl.kids))
		}
		for _, k := range kills {
			k := k
			w.At(k.at, func() { w.KillThread(ths[k.victim], nil) })
		}
	})
}

func TestReferenceRandomScripts(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		randomScriptWorld(seed).checkExact(t)
	}
}

// TestReferenceSweep rides a reference profiler along the online one on
// every world of a quick experiment sweep (T/F/R, W, C and D series),
// attached through Hooks.OnWorld, and compares each pair at the world's
// final clock.
func TestReferenceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles every world of a quick sweep twice; skipped in -short")
	}
	type pair struct {
		w      *sim.World
		online *profile.Profiler
		ref    *refProfiler
	}
	var (
		mu    sync.Mutex
		pairs []pair
	)
	attach := func(w *sim.World) trace.Sink {
		pr := pair{w: w, online: profile.New(w.Config().CPUs), ref: newRefProfiler(w.Config().CPUs, false)}
		mu.Lock()
		pairs = append(pairs, pr)
		mu.Unlock()
		return trace.Tee(pr.online, pr.ref)
	}
	sweep := append(append(append(experiments.All(), experiments.WSeries()...), experiments.CSeries()...), experiments.DSeries()...)
	outs := experiments.RunWith(experiments.Config{Quick: true, Seed: 1, Hooks: sim.Hooks{OnWorld: attach}},
		experiments.Options{Experiments: sweep})
	if len(outs) != len(sweep) || len(pairs) == 0 {
		t.Fatalf("%d outcomes for %d experiments, %d worlds", len(outs), len(sweep), len(pairs))
	}
	for i, pr := range pairs {
		online := pr.online.Finish(pr.w.Now())
		if res := online.Residue(); res != 0 {
			t.Errorf("world %d: residue %v, want 0", i, res)
		}
		if d := diffProfiles(online, pr.ref.finish(pr.w.Now())); len(d) > 0 {
			t.Errorf("world %d: online profile differs from the reference:\n  %s", i, strings.Join(d, "\n  "))
		}
	}
}

// collectorDiff replays events through stats' Collector (via Analyze)
// and through a profiler, both to the last record, and lists every
// thread whose Collector execution time differs from its profiled
// running time.
func collectorDiff(events []trace.Event, cpus int) []string {
	var end vclock.Time
	if len(events) > 0 {
		end = events[len(events)-1].Time
	}
	exec := stats.Analyze(events, 0, vclock.Never).ExecByThread
	p := profile.New(cpus)
	for _, ev := range events {
		p.Record(ev)
	}
	var diffs []string
	seen := map[int32]bool{}
	for _, th := range p.Finish(end).Threads {
		seen[th.ID] = true
		if exec[th.ID] != th.Running() {
			diffs = append(diffs, fmt.Sprintf("t%d: collector %v, profiler %v", th.ID, exec[th.ID], th.Running()))
		}
	}
	for id, d := range exec {
		if !seen[id] {
			diffs = append(diffs, fmt.Sprintf("t%d: collector %v, profiler has no such thread", id, d))
		}
	}
	slices.Sort(diffs)
	return diffs
}

// TestCollectorMatchesProfiler checks stats.Collector's per-thread CPU
// time against the profiler on the random scripts and on the twelve
// Table 1–3 benchmarks on 1, 2 and 4 CPUs.
func TestCollectorMatchesProfiler(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		r := randomScriptWorld(seed)
		if d := collectorDiff(r.events, r.cpus); len(d) > 0 {
			t.Errorf("%s: collector differs from the profiler:\n  %s", r.label, strings.Join(d, "\n  "))
		}
	}
	for _, b := range workload.AllBenchmarks() {
		for _, cpus := range []int{1, 2, 4} {
			var buf trace.Buffer
			workload.Run(b, workload.RunConfig{Window: 2 * vclock.Second, Seed: 1, CPUs: cpus,
				Hooks: sim.Hooks{OnWorld: func(*sim.World) trace.Sink { return &buf }}})
			if d := collectorDiff(buf.Events, cpus); len(d) > 0 {
				t.Errorf("%s/%s cpus=%d: collector differs from the profiler:\n  %s", b.System, b.Name, cpus, strings.Join(d, "\n  "))
			}
		}
	}
}

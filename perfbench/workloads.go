package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/paradigm"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/workload"
	"repro/internal/workload/spec"
)

// A scenario is one benchmark workload: a fixed input set. setup builds every world, population
// and fleet an iteration needs; the returned instance is then run,
// summarized and shut down, each phase timed by the harness.
type scenario struct {
	name  string
	setup func(e *env) (instance, error)
}

// instance is one set-up iteration of a workload.
type instance interface {
	// run drives the simulation to completion.
	run() error
	// finish summarizes the run into the checked outcome.
	finish() outcome
	// shutdown tears down every world the iteration built.
	shutdown()
}

// outcome is an iteration's simulated result: what the output check
// compares across iterations and against the expected values, plus the
// exact counts the per-layer report draws from the summaries.
type outcome struct {
	// digest is the FNV-1a hash of the canonical JSON summary.
	digest string
	// problems lists violated invariants (accounting identities, profile
	// residue); an iteration with any fails its check.
	problems []string

	offered, completed int64
	cluster            *cluster.Summary
	profile            *profile.Summary
}

// env is what a workload's setup may attach to its worlds. In the
// untraced run dec and counts are nil and hooks, sink and policy return
// their inputs untouched, so the measured program is exactly the one
// users run.
type env struct {
	seed  int64
	probe *sim.Probe
	dec   *decorators
	// counts, if set, profiles every world whose workload attaches no
	// OnWorld sink of its own; the counting iteration reads switch,
	// preemption and monitor counts from it.
	counts *profile.Set
}

// hooks returns the seams for every world of the iteration: the probe
// always; in the counting iteration a profiler where onWorld is nil; in
// the traced run also the fork counter, the world recorder and a counting
// decorator around whatever sink onWorld supplies.
func (e *env) hooks(onWorld func(*sim.World) trace.Sink) sim.Hooks {
	if onWorld == nil && e.counts != nil {
		onWorld = e.counts.Attach
	}
	h := sim.Hooks{Probe: e.probe, OnWorld: onWorld}
	if e.dec != nil {
		e.dec.instrument(&h)
	}
	return h
}

// sink wraps a world's Config.Trace in the traced run.
func (e *env) sink(s trace.Sink) trace.Sink {
	if e.dec == nil {
		return s
	}
	return e.dec.wrapSink(s)
}

// policy wraps a scheduling policy in the traced run.
func (e *env) policy(p sim.Policy) sim.Policy {
	if e.dec == nil {
		return p
	}
	return e.dec.wrapPolicy(p)
}

var scenarios = []scenario{
	{"echo-fleet", setupEchoFleet},
	{"desktop", setupDesktop},
	{"fleet-resilient", setupFleetResilient},
	{"slo-hybrid", setupSLOHybrid},
}

func findScenario(name string) (scenario, bool) {
	for _, w := range scenarios {
		if w.name == name {
			return w, true
		}
	}
	return scenario{}, false
}

func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: summary does not encode: %v", err))
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// --- fleets ---------------------------------------------------------------

// Per-workload sizes. Each iteration is a few tenths of a second of host
// time on a 2-core machine, so a 20-second run yields dozens of
// iterations for its median.
const (
	echoInstances = 16
	echoSessions  = 1000
	echoRequests  = 120_000
	echoRatePer   = 4000 // requests per virtual second per instance

	resilientRequests = 12_000
)

// echoFleetSpec is 16 bare echo servers of 1,000 session threads each
// behind round-robin routing and always-admit, fed Poisson arrivals at
// 4,000 req/s per instance with 100us service (40% utilization), on the
// fire-and-forget driver with two advance shards.
func echoFleetSpec(e *env) cluster.Spec {
	return cluster.Spec{
		Preset:    "w1-echo",
		Instances: echoInstances,
		Sessions:  echoSessions,
		Router:    cluster.RouteRoundRobin,
		Admission: cluster.AdmitAlways,
		Seed:      e.seed,
		Requests:  echoRequests,
		Rate:      echoInstances * echoRatePer,
		Service:   100 * vclock.Microsecond,
		Shards:    2,
		Hooks:     e.hooks(nil),
	}
}

// fleetResilientSpec is 8 echo servers of 32 sessions under least-loaded
// routing, hot-user skew and a 5%/20x heavy tail, with the full client
// policy stack (timeouts, budgeted retries, hedging, breakers, health
// probes) and one instance crash plus one instance stall inside the
// arrival window. It runs on the tracked-request driver, serially.
func fleetResilientSpec(e *env) cluster.Spec {
	d := func(v vclock.Duration) fault.Dur { return fault.Dur{Duration: v} }
	return cluster.Spec{
		Preset:         "w1-echo",
		Instances:      8,
		Sessions:       32,
		Router:         cluster.RouteLeastLoaded,
		Admission:      cluster.AdmitAlways,
		Seed:           e.seed,
		Requests:       resilientRequests,
		Rate:           16_000,
		Service:        100 * vclock.Microsecond,
		Users:          512,
		HotUsers:       8,
		HotFraction:    0.3,
		HeavyFraction:  0.05,
		HeavyFactor:    20,
		Start:          200 * vclock.Millisecond,
		Shards:         1,
		Timeout:        10 * vclock.Millisecond,
		Retries:        2,
		RetryBackoff:   500 * vclock.Microsecond,
		RetryBudget:    0.2,
		HedgeAfter:     2 * vclock.Millisecond,
		BreakerAfter:   5,
		BreakerOpenFor: 10 * vclock.Millisecond,
		ProbeEvery:     2 * vclock.Millisecond,
		Faults: &fault.Plan{
			CrashInstance: []fault.CrashInstance{{Instance: 1, At: d(260 * vclock.Millisecond), Restart: d(40 * vclock.Millisecond)}},
			StallInstance: []fault.StallInstance{{Instance: 2, From: d(350 * vclock.Millisecond), Until: d(380 * vclock.Millisecond)}},
		},
		Hooks: e.hooks(nil),
	}
}

func setupEchoFleet(e *env) (instance, error)      { return newFleet(echoFleetSpec(e)) }
func setupFleetResilient(e *env) (instance, error) { return newFleet(fleetResilientSpec(e)) }

type fleet struct {
	c   *cluster.Cluster
	sum *cluster.Summary
}

func newFleet(s cluster.Spec) (*fleet, error) {
	c, err := cluster.New(s)
	if err != nil {
		return nil, err
	}
	return &fleet{c: c}, nil
}

func (f *fleet) run() (err error) {
	f.sum, err = f.c.Run()
	return err
}

func (f *fleet) finish() outcome {
	s := f.sum
	o := outcome{digest: digestOf(s), offered: s.Offered, completed: s.Completed, cluster: s}
	if sum := s.Rejected + s.Shed + s.Failed + s.Degraded + s.Goodput; sum != s.Offered {
		o.problems = append(o.problems, fmt.Sprintf("offered %d != rejected+shed+failed+degraded+goodput %d", s.Offered, sum))
	}
	if s.Completed == 0 {
		o.problems = append(o.problems, "fleet completed no requests")
	}
	return o
}

func (f *fleet) shutdown() { f.c.Shutdown() }

// --- the paper's desktop benchmarks ----------------------------------------

// desktopWarmup and desktopWindow are the quick-mode Table 1-3 window
// (`threadstudy -quick`): 3 virtual seconds of warm-up, then 10 measured.
const (
	desktopWarmup = 3 * vclock.Second
	desktopWindow = 10 * vclock.Second
)

// desktop runs the twelve Cedar/GVX benchmarks of Tables 1-3 with the
// SystemDaemon on, a stats.Collector as each world's trace and the
// per-thread profiler attached through OnWorld — the bench sweep's
// configuration. Every world is built before the first one runs.
type desktop struct {
	benches []workload.Benchmark
	worlds  []*sim.World
	cols    []*stats.Collector
	set     *profile.Set
}

func setupDesktop(e *env) (instance, error) {
	d := &desktop{benches: workload.AllBenchmarks(), set: profile.NewSet()}
	end := vclock.Time(0).Add(desktopWarmup).Add(desktopWindow)
	hooks := e.hooks(d.set.Attach)
	for _, b := range d.benches {
		col := stats.NewCollector(vclock.Time(0).Add(desktopWarmup), end)
		w := sim.NewWorld(sim.Config{
			Trace:        e.sink(col),
			Seed:         e.seed,
			CPUs:         1,
			Hooks:        hooks,
			SystemDaemon: true,
		})
		b.Build(w, paradigm.NewRegistry())
		d.worlds = append(d.worlds, w)
		d.cols = append(d.cols, col)
	}
	return d, nil
}

func (d *desktop) run() error {
	end := vclock.Time(0).Add(desktopWarmup).Add(desktopWindow)
	for _, w := range d.worlds {
		w.Run(end)
	}
	return nil
}

// desktopRow is one benchmark's digest record: the online analysis plus
// its name, so a swapped row changes the digest.
type desktopRow struct {
	System, Name string
	Analysis     *stats.Analysis
}

func (d *desktop) finish() outcome {
	rows := make([]desktopRow, len(d.benches))
	for i, b := range d.benches {
		rows[i] = desktopRow{b.System, b.Name, d.cols[i].Finish(d.worlds[i].Now())}
	}
	ps := d.set.Summary()
	o := outcome{
		digest: digestOf(struct {
			Rows    []desktopRow
			Profile profile.Summary
		}{rows, ps}),
		// The desktop has no requests; its unit of work is a benchmark row.
		offered:   int64(len(rows)),
		completed: int64(len(rows)),
		profile:   &ps,
	}
	if ps.Residue != 0 {
		o.problems = append(o.problems, fmt.Sprintf("profile residue %v, want 0", ps.Residue))
	}
	if ps.Worlds != len(rows) {
		o.problems = append(o.problems, fmt.Sprintf("profiled %d worlds, want %d", ps.Worlds, len(rows)))
	}
	return o
}

func (d *desktop) shutdown() {
	for _, w := range d.worlds {
		w.Shutdown()
	}
}

// --- the SLO cohort mix under the hybrid policy -----------------------------

// sloWorlds is how many independently seeded worlds one slo-hybrid
// iteration runs; one world is too little work to time steadily.
const (
	sloWorlds = 16
	sloPolicy = "hybrid:slice=10ms,share=0.3"
)

// sloHybridSpec is the S1 interactive/bulk mix over a 4-thread background
// batch pool: interactive at high priority (1ms service, 25ms SLO, ~45%
// load), bulk at normal priority (2ms, 100ms SLO, ~20% load).
func sloHybridSpec() *spec.Spec {
	cohort := func(name string, sessions int, requests int64, rate float64, service, slo vclock.Duration, prio string) spec.Cohort {
		return spec.Cohort{
			Name: name, Sessions: sessions, Requests: requests,
			Arrival:  &spec.Arrival{Process: spec.ProcPoisson, Rate: rate},
			Service:  &spec.Service{Dist: spec.DistConst, MeanUS: service.Micros()},
			Priority: prio, SLOUS: slo.Micros(),
		}
	}
	return &spec.Spec{
		Schema: spec.Schema, Name: "slo-hybrid", Kind: spec.KindSLO,
		HorizonUS: (8 * vclock.Second).Micros(),
		Batch: &spec.Batch{Workers: 4, ChunkUS: (5 * vclock.Millisecond).Micros(),
			SLOUS: (50 * vclock.Millisecond).Micros(), Priority: "background"},
		Cohorts: []spec.Cohort{
			cohort("interactive", 16, 2800, 450, vclock.Millisecond, 25*vclock.Millisecond, "high"),
			cohort("bulk", 8, 600, 100, 2*vclock.Millisecond, 100*vclock.Millisecond, "normal"),
		},
	}
}

type sloHybrid struct {
	worlds []*sim.World
	runs   []*workload.SpecRun
}

func setupSLOHybrid(e *env) (instance, error) {
	s := &sloHybrid{}
	sp := sloHybridSpec()
	for i := 0; i < sloWorlds; i++ {
		pol, err := sched.Parse(sloPolicy)
		if err != nil {
			return nil, err
		}
		h := e.hooks(nil)
		h.Policy = e.policy(pol)
		w := sim.NewWorld(sim.Config{Seed: e.seed + int64(i)*1_000_003, Hooks: h})
		run, err := workload.StartSpec(w, sp, workload.SpecOptions{})
		if err != nil {
			w.Shutdown()
			s.shutdown()
			return nil, err
		}
		s.worlds = append(s.worlds, w)
		s.runs = append(s.runs, run)
	}
	return s, nil
}

func (s *sloHybrid) run() error {
	for i, w := range s.worlds {
		w.Run(vclock.Time(0).Add(s.runs[i].Horizon))
	}
	return nil
}

// sloClass is one class's digest record; latencies in microseconds.
type sloClass struct {
	Class                      string
	Offered, Completed, OnTime int64
	Count                      int
	P50, P99, Max              int64
}

func (s *sloHybrid) finish() outcome {
	var o outcome
	var all [][]sloClass
	for i, r := range s.runs {
		st := r.SLO.Finish()
		var classes []sloClass
		for _, class := range st.Classes() {
			c := sloClass{Class: class, Offered: st.Offered[class], Completed: st.Completed[class], OnTime: st.OnTime[class]}
			if lr := st.Latency.Class(class); lr != nil {
				c.Count = lr.Count()
				c.P50 = lr.Percentile(0.5).Micros()
				c.P99 = lr.Percentile(0.99).Micros()
				c.Max = lr.Max().Micros()
			}
			if c.Completed > c.Offered || c.OnTime > c.Completed {
				o.problems = append(o.problems, fmt.Sprintf("world %d class %s: offered %d completed %d on-time %d", i, class, c.Offered, c.Completed, c.OnTime))
			}
			o.offered += c.Offered
			o.completed += c.Completed
			classes = append(classes, c)
		}
		sort.Slice(classes, func(a, b int) bool { return classes[a].Class < classes[b].Class })
		all = append(all, classes)
	}
	if o.completed == 0 {
		o.problems = append(o.problems, "no SLO work completed")
	}
	o.digest = digestOf(all)
	return o
}

func (s *sloHybrid) shutdown() {
	for _, w := range s.worlds {
		w.Shutdown()
	}
}

package workload

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/vclock"
	"repro/internal/workload/spec"
)

// This file is the single construction entry point: every workload —
// the W-series presets, the S-series SLO cohorts, the general cohort
// mix, and the cluster's per-instance server pools with their cedar/gvx
// background populations — is built by compiling a spec.Spec through
// StartSpec. Every open-loop kind compiles onto the same two parts: a
// Server session pool per cohort (server.go) fed by the shared arrival
// generator (cohorts.go). The kinds differ only in the constants of
// kindTable, in the mixed and slo kinds' batch pool, and in the
// pipeline kind's stage chains behind its first-stage pool.

// SpecOptions carries the run-scoped knobs StartSpec accepts alongside
// the declarative spec.
type SpecOptions struct {
	// Names supplies the interned session-name table for the server
	// kind (the cluster shares one table across a fleet); nil builds a
	// private table.
	Names *NameTable
}

// SpecRun is a compiled, started workload.
type SpecRun struct {
	Spec *spec.Spec
	// Horizon is the recommended Run bound: the spec's declared horizon
	// or the generator's historical derivation.
	Horizon vclock.Duration

	// Pools holds one session pool per cohort, in spec order (none for
	// the pipeline kind). Server is the first: the only pool of the
	// echo, mixed and server kinds.
	Pools  []*Server
	Server *Server
	// Batch is the mixed and slo kinds' always-ready compute pool.
	Batch *BatchPool
	// Pipeline is the pipeline kind's stage chains.
	Pipeline *Pipeline
	// SLO is the slo kind's per-class view.
	SLO *SLOLoad
}

// Load returns the run's aggregate LoadStats (stamping windows); nil
// for the slo kind (use SLO.Finish). Several pools merge exactly.
func (r *SpecRun) Load() *LoadStats {
	switch {
	case r.Pipeline != nil:
		return r.Pipeline.Finish()
	case r.SLO != nil:
		return nil
	case len(r.Pools) == 1:
		return r.Server.Finish()
	}
	s := &LoadStats{}
	var first, last vclock.Time
	for _, p := range r.Pools {
		p.Finish()
		if p.Stats.Offered > 0 && (s.Offered == 0 || p.First().Before(first)) {
			first = p.First()
		}
		if p.LastDone().After(last) {
			last = p.LastDone()
		}
		s.Offered += p.Stats.Offered
		s.Completed += p.Stats.Completed
		s.Threads += p.Stats.Threads
		s.Latency.Merge(&p.Stats.Latency)
	}
	if s.Completed > 0 {
		s.Window = last.Sub(first)
	}
	return s
}

// kindConsts is everything StartSpec derives from spec.Kind alone; no
// spec field or option selects any of it.
type kindConsts struct {
	// stream names each cohort's RNG stream and names prefixes its
	// session threads ("-i" appended); a perCohort kind appends the
	// cohort name to both.
	stream, names string
	perCohort     bool
	// The first arrival waits for every fresh thread to run once and
	// park: parkers × (SwitchCost + grain) + 100ms, where the parkers
	// are the sessions (and, with parkBatch, the batch pool).
	grain     vclock.Duration
	parkBatch bool
	// stamp makes sessions and batch workers carry SLO metadata and the
	// batch pool keep per-class books.
	stamp bool
	// prio, when set, pins every session's priority.
	prio sim.Priority
}

var kindTable = map[string]kindConsts{
	spec.KindEcho:    {stream: "workload.echo", names: "echo", grain: 10 * vclock.Microsecond},
	spec.KindMixed:   {stream: "workload.echo", names: "echo", grain: 10 * vclock.Microsecond, prio: sim.PriorityHigh},
	spec.KindSLO:     {stream: "workload.slo.", names: "slo-", perCohort: true, grain: 10 * vclock.Microsecond, parkBatch: true, stamp: true},
	spec.KindCohorts: {stream: "workload.cohort.", perCohort: true, grain: 10 * vclock.Microsecond},
	// The pipeline kind's one "cohort" is its chains' first stages.
	spec.KindPipeline: {stream: "workload.pipeline", grain: 20 * vclock.Microsecond},
}

// StartSpec validates sp, builds its background preset population (if
// any), and spawns the generator for its kind into w. The world is the
// caller's: build it with the seed, hooks, policy, and SystemDaemon
// setting the run wants (sp.SystemDaemon is advisory for that last
// knob), then drive it with Run to run.Horizon.
func StartSpec(w *sim.World, sp *spec.Spec, opts SpecOptions) (*SpecRun, error) {
	if err := sp.Check(); err != nil {
		return nil, err
	}
	if sp.Background != "" && sp.Background != "w1-echo" {
		preset, err := FindPreset(sp.Background)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: background: %v", spec.ErrInvalidSpec, sp.Name, err)
		}
		if preset.Background != nil {
			preset.Background(w)
		}
	}
	run := &SpecRun{Spec: sp, Horizon: sp.Horizon()}
	if sp.Kind == spec.KindServer {
		c := &sp.Cohorts[0]
		names := opts.Names
		if names == nil {
			names = NewNameTable(c.Name, c.Sessions)
		}
		run.Server = startServer(w, names, c.Sessions, c.SimPriority())
		run.Pools = []*Server{run.Server}
		return run, nil
	}

	k := kindTable[sp.Kind]
	g := &generator{w: w}
	parkers := 0
	if p := sp.Pipeline; p != nil {
		run.Pipeline = startPipeline(w, p)
		g.add(&arrivals{pool: run.Pipeline.src, rng: w.DeriveRand(k.stream),
			gap:      (&spec.Arrival{Process: spec.ProcPoisson, Rate: p.Rate}).GapSampler(),
			svc:      run.Pipeline.cost,
			requests: p.Requests})
		parkers = p.Pipelines * p.Stages
	}
	for i := range sp.Cohorts {
		c := &sp.Cohorts[i]
		stream, prefix := k.stream, k.names
		if k.perCohort {
			stream, prefix = stream+c.Name, prefix+c.Name
		}
		prio := c.SimPriority()
		if k.prio != 0 {
			prio = k.prio
		}
		pool := startServer(w, NewNameTable(prefix, c.Sessions), c.Sessions, prio)
		pool.slo = vclock.Duration(c.SLOUS)
		if k.stamp {
			pool.stampSLO(c.Name, c.ServiceMean())
		}
		run.Pools = append(run.Pools, pool)
		g.add(&arrivals{pool: pool, rng: w.DeriveRand(stream),
			gap: c.Arrival.GapSampler(), svc: c.ServiceMean(), requests: c.Requests})
		parkers += c.Sessions
	}
	if len(run.Pools) > 0 {
		run.Server = run.Pools[0]
	}
	if sp.BatchGrain() > 0 {
		run.Batch = startBatch(w, sp, k)
		if k.parkBatch {
			parkers += run.Batch.workers
		}
		if sp.Kind == spec.KindMixed {
			// W3 reports both populations as its threads.
			run.Server.Stats.Threads += run.Batch.workers
		}
	}
	if k.stamp {
		run.SLO = &SLOLoad{pools: run.Pools, batch: run.Batch}
		for _, c := range sp.Cohorts {
			run.SLO.classes = append(run.SLO.classes, c.Name)
		}
	}
	g.start(vclock.Duration(parkers)*(w.Config().SwitchCost+k.grain) + 100*vclock.Millisecond)
	if b := run.Batch; b != nil {
		// End the batch loops at the horizon, so a single Run(horizon)
		// suffices and Shutdown has little to unwind.
		w.At(vclock.Time(0).Add(run.Horizon), func() { b.stopped = true })
	}
	return run, nil
}

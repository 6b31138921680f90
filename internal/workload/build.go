package workload

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/vclock"
	"repro/internal/workload/spec"
)

// This file is the single construction entry point the API redesign
// demanded: every workload — the W-series presets, the S-series SLO
// cohorts, the general cohort mix, and the cluster's per-instance
// server pools with their cedar/gvx background populations — is built
// by compiling a spec.Spec through StartSpec. The hand-rolled Start*
// constructors remain as the generator layer underneath, but callers
// above this package (experiments, cluster, the CLI) describe load as
// data and come through here.

// RequestTap observes one injected request at injection time: the
// arrival instant, the cohort label, the target session index, and the
// drawn service demand. Taps run in driver context, in arrival order.
type RequestTap func(at vclock.Time, cohort string, session int, service vclock.Duration)

// SpecOptions carries the run-scoped knobs StartSpec accepts alongside
// the declarative spec.
type SpecOptions struct {
	// Record, when non-nil, accumulates every generated request into
	// the trace in arrival order.
	Record *spec.Trace
	// Replay, when non-nil, drives arrivals from the recorded trace
	// instead of the spec's arrival processes: same instants, same
	// session picks, same demands, no RNG draws. The trace must have
	// been recorded from a compatible spec (same cohort names, session
	// counts it fits inside). Record and Replay compose — re-recording
	// a replayed run must reproduce the trace byte-for-byte.
	Replay *spec.Trace
	// Names supplies the interned session-name table for the server
	// kind (the cluster shares one table across a fleet); nil builds a
	// private table.
	Names *NameTable
}

// SpecRun is a compiled, started workload. Exactly one of the instance
// fields is non-nil, matching the spec's kind.
type SpecRun struct {
	Spec *spec.Spec
	// Horizon is the recommended Run bound: the spec's declared horizon
	// or the generator's historical derivation.
	Horizon vclock.Duration

	Echo     *EchoServer
	Pipeline *Pipeline
	Mixed    *Mixed
	SLO      *SLOLoad
	Cohorts  *CohortLoad
	Server   *Server
}

// Load returns the run's aggregate LoadStats (stamping windows), for
// the kinds that keep one; nil for the slo kind (use SLO.Finish).
func (r *SpecRun) Load() *LoadStats {
	switch {
	case r.Echo != nil:
		return r.Echo.Finish()
	case r.Pipeline != nil:
		return r.Pipeline.Finish()
	case r.Mixed != nil:
		return r.Mixed.Finish()
	case r.Cohorts != nil:
		return r.Cohorts.Finish()
	case r.Server != nil:
		return r.Server.Finish()
	}
	return nil
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
	replays, err := replayEntries(sp, opts.Replay)
	if err != nil {
		return nil, err
	}
	var tap RequestTap
	if opts.Record != nil {
		rec := opts.Record
		tap = rec.Add
	}
	run := &SpecRun{Spec: sp, Horizon: sp.Horizon()}
	switch sp.Kind {
	case spec.KindEcho:
		c := &sp.Cohorts[0]
		run.Echo = startEcho(w, EchoParams{
			Sessions: c.Sessions,
			Requests: c.Requests,
			Rate:     c.Arrival.Rate,
			Service:  c.ServiceMean(),
			Priority: c.SimPriority(),
			Start:    vclock.Duration(sp.StartUS),
		}, tap, c.Name, replays[c.Name])
	case spec.KindPipeline:
		p := sp.Pipeline
		run.Pipeline = startPipeline(w, PipelineParams{
			Pipelines: p.Pipelines,
			Stages:    p.Stages,
			Buffer:    p.Buffer,
			Requests:  p.Requests,
			Rate:      p.Rate,
			StageCost: vclock.Duration(p.StageCostUS),
		}, tap, replays["pipeline"])
	case spec.KindMixed:
		c := &sp.Cohorts[0]
		run.Mixed = startMixed(w, MixedParams{
			Interactive: c.Sessions,
			Batch:       sp.Batch.Workers,
			Requests:    c.Requests,
			Rate:        c.Arrival.Rate,
			Service:     c.ServiceMean(),
			BatchChunk:  vclock.Duration(sp.Batch.ChunkUS),
			Horizon:     run.Horizon,
		}, tap, c.Name, replays[c.Name])
	case spec.KindSLO:
		p := SLOParams{
			Horizon: run.Horizon,
			Start:   vclock.Duration(sp.StartUS),
		}
		for _, c := range sp.Cohorts {
			p.Cohorts = append(p.Cohorts, SLOCohort{
				Name:     c.Name,
				Sessions: c.Sessions,
				Requests: c.Requests,
				Rate:     c.Arrival.Rate,
				Service:  c.ServiceMean(),
				SLO:      vclock.Duration(c.SLOUS),
				Priority: c.SimPriority(),
			})
		}
		if b := sp.Batch; b != nil {
			p.Batch = b.Workers
			p.BatchChunk = vclock.Duration(b.ChunkUS)
			p.BatchSLO = vclock.Duration(b.SLOUS)
			bp, _ := spec.ParsePriority(b.Priority)
			p.BatchPriority = bp
		}
		run.SLO = startSLO(w, p, tap, replays)
	case spec.KindCohorts:
		run.Cohorts = startCohorts(w, sp, tap, replays)
	case spec.KindServer:
		c := &sp.Cohorts[0]
		if opts.Replay != nil {
			return nil, fmt.Errorf("%w: %s: the server kind is externally driven — replay lives in its driver", spec.ErrInvalidSpec, sp.Name)
		}
		names := opts.Names
		if names == nil {
			names = NewNameTable(c.Name, c.Sessions)
		}
		prio := c.SimPriority()
		if prio == 0 {
			prio = sim.PriorityNormal
		}
		run.Server = StartServer(w, names, c.Sessions, prio)
	}
	return run, nil
}

// replayEntries validates a replay trace against the spec and splits it
// per cohort (the pipeline kind files under "pipeline"). Arrival times
// must be strictly increasing within a cohort — every generator floors
// gaps at one microsecond, so a recorded trace always satisfies this.
func replayEntries(sp *spec.Spec, tr *spec.Trace) (map[string][]spec.Entry, error) {
	if tr == nil {
		return map[string][]spec.Entry{}, nil
	}
	if sp.Kind == spec.KindServer {
		return nil, fmt.Errorf("%w: %s: the server kind is externally driven — replay lives in its driver", spec.ErrInvalidSpec, sp.Name)
	}
	pools := map[string]int{}
	switch sp.Kind {
	case spec.KindPipeline:
		pools["pipeline"] = sp.Pipeline.Pipelines
	default:
		for _, c := range sp.Cohorts {
			pools[c.Name] = c.Sessions
		}
	}
	out := make(map[string][]spec.Entry, len(pools))
	last := map[string]int64{}
	for i, e := range tr.Entries {
		n, ok := pools[e.Cohort]
		if !ok {
			return nil, fmt.Errorf("%w: %s: trace entry %d names cohort %q the spec does not declare", spec.ErrInvalidSpec, sp.Name, i, e.Cohort)
		}
		if e.Session >= n {
			return nil, fmt.Errorf("%w: %s: trace entry %d targets session %d of a %d-session pool %q", spec.ErrInvalidSpec, sp.Name, i, e.Session, n, e.Cohort)
		}
		if prev, seen := last[e.Cohort]; seen && e.AtUS <= prev {
			return nil, fmt.Errorf("%w: %s: trace entry %d: cohort %q arrivals must be strictly increasing", spec.ErrInvalidSpec, sp.Name, i, e.Cohort)
		}
		last[e.Cohort] = e.AtUS
		out[e.Cohort] = append(out[e.Cohort], e)
	}
	for name := range pools {
		if len(out[name]) == 0 {
			return nil, fmt.Errorf("%w: %s: replay trace has no entries for cohort %q", spec.ErrInvalidSpec, sp.Name, name)
		}
	}
	return out, nil
}

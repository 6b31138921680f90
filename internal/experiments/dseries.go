package experiments

import (
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// The D-series is the resilience study: fleets with injected instance
// faults (crashes, stalls, brownouts) under the cluster's client-side
// policy stack — health-aware failover, per-attempt timeouts, budgeted
// retries, tail hedging, and circuit breakers. Each experiment compares
// a protected fleet against an unprotected control AND against the
// same-seed fault-free baseline, so both the cost of the fault and the
// value of the mechanism are visible in one table. Like the W and C
// series it is opt-in only (threadstudy -dseries or -experiment D1..D4);
// the default output and its goldens never see it.
//
// Every spec pins Start explicitly, so the fault windows provably
// overlap the arrival window in both quick and full runs, whatever the
// session-park default would have chosen.

// dDur is shorthand for plan times in D-series specs.
func dDur(d vclock.Duration) fault.Dur { return fault.Dur{Duration: d} }

// dTable renders the graceful-degradation buckets, one summary per row.
func dTable(title string, sums []*cluster.Summary, labels []string) *stats.Table {
	t := stats.NewTable(title,
		"Config", "Goodput", "Degraded", "Shed", "Failed", "Rejected", "p99", "Faulted p99")
	for i, s := range sums {
		t.AddRowf(
			"%s", labels[i],
			"%d", s.Goodput,
			"%d", s.Degraded,
			"%d", s.Shed,
			"%d", s.Failed,
			"%d", s.Rejected,
			"%s", vclock.Duration(s.P99Us),
			"%s", vclock.Duration(dFaultedP99(s)),
		)
	}
	return t
}

// dFaultedP99 extracts the faulted-phase p99 (zero when the run had no
// faulted-phase successes — the baseline rows).
func dFaultedP99(s *cluster.Summary) int64 {
	if s.Resilience == nil {
		return 0
	}
	for _, p := range s.Resilience.Phases {
		if p.Phase == "faulted" {
			return p.P99Us
		}
	}
	return 0
}

// dMechTable renders the mechanism ledger for the same rows.
func dMechTable(sums []*cluster.Summary, labels []string) *stats.Table {
	t := stats.NewTable("Mechanism ledger",
		"Config", "Timeouts", "Retries", "Denied", "Hedges", "HedgeWins", "BrkOpens", "Ejections", "Recovery")
	for i, s := range sums {
		r := s.Resilience
		if r == nil {
			r = &cluster.ResilienceSummary{}
		}
		t.AddRowf(
			"%s", labels[i],
			"%d", r.Timeouts,
			"%d", r.Retries,
			"%d", r.RetriesDenied,
			"%d", r.Hedges,
			"%d", r.HedgeWins,
			"%d", r.BreakerOpens,
			"%d", r.Ejections,
			"%s", vclock.Duration(r.RecoveryUs),
		)
	}
	return t
}

// dRequests scales the offered load for quick mode.
func dRequests(cfg Config, full int64) int64 {
	if cfg.Quick {
		return full / 4
	}
	return full
}

// ClusterCrashFailover (D1) kills one of four instances mid-window
// (restarting it 30ms later) and compares three fleets: fault-free,
// faulted with retries but blind routing (no health monitor — every
// round-robin turn keeps dialing the corpse), and faulted with the
// health monitor ejecting and re-admitting the instance.
func ClusterCrashFailover(cfg Config) *Report {
	base := cluster.Spec{
		Preset:       "w1-echo",
		Instances:    4,
		Sessions:     16,
		Router:       cluster.RouteRoundRobin,
		Seed:         cfg.seed(),
		Requests:     dRequests(cfg, 6000),
		Rate:         20_000,
		Service:      100 * vclock.Microsecond,
		Start:        200 * vclock.Millisecond,
		Timeout:      10 * vclock.Millisecond,
		Retries:      2,
		RetryBackoff: 500 * vclock.Microsecond,
		Hooks:        cfg.Hooks,
		Shards:       cfg.Shards,
	}
	crash := &fault.Plan{CrashInstance: []fault.CrashInstance{
		{Instance: 1, At: dDur(220 * vclock.Millisecond), Restart: dDur(30 * vclock.Millisecond)},
	}}
	baseline := base // resilient path (Timeout set), no faults
	blind := base
	blind.Faults = crash
	failover := base
	failover.Faults = crash
	failover.ProbeEvery = 2 * vclock.Millisecond
	sums := []*cluster.Summary{mustCluster(baseline), mustCluster(blind), mustCluster(failover)}
	labels := []string{"fault-free", "crash, no failover", "crash + health failover"}
	return &Report{ID: "D1", Title: "Instance crash: health-aware failover vs blind retries",
		Tables: []*stats.Table{
			dTable("4 w1-echo instances, instance 1 down 220-250ms, rr routing", sums, labels),
			dMechTable(sums, labels),
		},
		Notes: []string{
			"without the monitor every fourth dispatch keeps hitting the dead instance and must burn a refusal",
			"plus a retry to land elsewhere; with probes the corpse is ejected after 3 failed probes, traffic",
			"re-homes along the ring, and re-admission is visible as the recovery time in the ledger.",
		},
		Cluster: sums}
}

// ClusterStallBreaker (D2) freezes one instance for 25ms — it admits
// requests but serves nothing, the paper's "the system seemed to stop"
// scaled to a machine — and compares bare per-attempt timeouts against
// breaker + hedging on top. Timeouts alone pay the full deadline before
// every escape; hedging duplicates the waiting request to a healthy
// instance at a p99-derived delay and the breaker stops new dispatches
// from queueing on the stalled machine at all.
func ClusterStallBreaker(cfg Config) *Report {
	base := cluster.Spec{
		Preset:       "w1-echo",
		Instances:    4,
		Sessions:     16,
		Router:       cluster.RouteRoundRobin,
		Seed:         cfg.seed(),
		Requests:     dRequests(cfg, 6000),
		Rate:         20_000,
		Service:      100 * vclock.Microsecond,
		Start:        200 * vclock.Millisecond,
		Timeout:      10 * vclock.Millisecond,
		Retries:      2,
		RetryBackoff: 500 * vclock.Microsecond,
		Hooks:        cfg.Hooks,
		Shards:       cfg.Shards,
	}
	stall := &fault.Plan{StallInstance: []fault.StallInstance{
		{Instance: 2, From: dDur(215 * vclock.Millisecond), Until: dDur(240 * vclock.Millisecond)},
	}}
	baseline := base
	bare := base
	bare.Faults = stall
	guarded := base
	guarded.Faults = stall
	guarded.BreakerAfter = 5
	guarded.BreakerOpenFor = 10 * vclock.Millisecond
	guarded.HedgeAfter = 2 * vclock.Millisecond
	sums := []*cluster.Summary{mustCluster(baseline), mustCluster(bare), mustCluster(guarded)}
	labels := []string{"fault-free", "stall, bare timeouts", "stall, breaker + hedge"}
	return &Report{ID: "D2", Title: "Stalled instance: circuit breaker + hedging vs bare timeouts",
		Tables: []*stats.Table{
			dTable("4 w1-echo instances, instance 2 frozen 215-240ms, rr routing", sums, labels),
			dMechTable(sums, labels),
		},
		Notes: []string{
			"a stalled instance is worse than a dead one: it accepts work and sits on it, so shallow probes and",
			"refusals never fire. Bare timeouts pay the whole 10ms deadline per trapped attempt; the hedge frees",
			"the waiting request after ~p99, and the opened breaker fast-fails dispatches to the frozen machine,",
			"which is why the faulted-phase p99 drops by several milliseconds.",
		},
		Cluster: sums}
}

// ClusterRetryStorm (D3) offers the fleet twice its capacity so
// deadlines blow and every timeout wants a retry — the classic
// self-amplifying storm — and compares an unmetered fleet against one
// holding retries to 10% of offered load.
func ClusterRetryStorm(cfg Config) *Report {
	base := cluster.Spec{
		Preset:       "w1-echo",
		Instances:    4,
		Sessions:     16,
		Router:       cluster.RouteRoundRobin,
		Seed:         cfg.seed(),
		Requests:     dRequests(cfg, 4000),
		Rate:         40_000, // ~2x the fleet's 100us-service capacity
		Service:      200 * vclock.Microsecond,
		Start:        200 * vclock.Millisecond,
		Timeout:      5 * vclock.Millisecond,
		Retries:      3,
		RetryBackoff: 250 * vclock.Microsecond,
		DegradedOver: 5 * vclock.Millisecond,
		Hooks:        cfg.Hooks,
		Shards:       cfg.Shards,
	}
	baseline := base
	baseline.Rate = 16_000 // the same fleet inside capacity: no storm to meter
	unmetered := base
	metered := base
	metered.RetryBudget = 0.1
	sums := []*cluster.Summary{mustCluster(baseline), mustCluster(unmetered), mustCluster(metered)}
	labels := []string{"in-capacity", "2x overload, no budget", "2x overload, 10% budget"}
	return &Report{ID: "D3", Title: "Retry storm under overload: unmetered vs 10% retry budget",
		Tables: []*stats.Table{
			dTable("4 w1-echo instances, 200us service, offered 2x capacity", sums, labels),
			dMechTable(sums, labels),
		},
		Notes: []string{
			"overload is not a fault any instance can see — every machine is merely busy. Unmetered clients",
			"answer each timeout with a retry, multiplying offered load exactly when capacity ran out; the",
			"budget caps fleet-wide retries at a fraction of arrivals, so the denied column absorbs the storm",
			"instead of the service queues.",
		},
		Cluster: sums}
}

// ClusterBrownout (D4) slows one instance 8x for a window — a brownout
// the shallow health probe cannot see, since the machine still answers
// — and runs the same degraded fleet under each routing policy. Only
// load-aware routing steers around sickness that doesn't look like
// death.
func ClusterBrownout(cfg Config) *Report {
	base := cluster.Spec{
		Preset:       "w1-echo",
		Instances:    4,
		Sessions:     16,
		Seed:         cfg.seed(),
		Requests:     dRequests(cfg, 6000),
		Rate:         20_000,
		Service:      100 * vclock.Microsecond,
		Users:        256,
		Start:        200 * vclock.Millisecond,
		ProbeEvery:   2 * vclock.Millisecond,
		DegradedOver: 2 * vclock.Millisecond,
		Hooks:        cfg.Hooks,
		Shards:       cfg.Shards,
	}
	brown := &fault.Plan{DegradeInstance: []fault.DegradeInstance{
		{Instance: 0, Factor: 8, From: dDur(215 * vclock.Millisecond), Until: dDur(245 * vclock.Millisecond)},
	}}
	var sums []*cluster.Summary
	var labels []string
	for _, r := range cluster.RouterNames() {
		spec := base
		spec.Router = r
		spec.Faults = brown
		sums = append(sums, mustCluster(spec))
		labels = append(labels, r)
	}
	// One fault-free reference under rr anchors the healthy numbers.
	ref := base
	ref.Router = cluster.RouteRoundRobin
	sums = append(sums, mustCluster(ref))
	labels = append(labels, "rr, fault-free")
	return &Report{ID: "D4", Title: "Brownout below the health probe: routing policy is the defense",
		Tables: []*stats.Table{
			dTable("4 w1-echo instances, instance 0 8x slower 215-245ms", sums, labels),
			dMechTable(sums, labels),
		},
		Notes: []string{
			"the ejections column stays zero in every row: the probe asks 'are you serving?' and the browned-out",
			"instance truthfully answers yes, slowly. Round-robin and affinity keep feeding it and accumulate",
			"degraded requests; least-loaded notices the swelling queue — the only signal a brownout emits —",
			"and routes around it without any failure detector at all.",
		},
		Cluster: sums}
}

// DSeries returns the resilience experiments, in presentation order.
// Not part of All(): opt-in only, goldens untouched.
func DSeries() []Experiment {
	return []Experiment{
		{"D1", "Instance crash: health-aware failover vs blind retries", ClusterCrashFailover},
		{"D2", "Stalled instance: circuit breaker + hedging vs bare timeouts", ClusterStallBreaker},
		{"D3", "Retry storm under overload: unmetered vs 10% retry budget", ClusterRetryStorm},
		{"D4", "Brownout below the health probe: routing policy is the defense", ClusterBrownout},
	}
}

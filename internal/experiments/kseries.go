package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/vclock"
	"repro/internal/workload/capacity"
	"repro/internal/workload/spec"
)

// The K-series is the capacity lab: each experiment asks "where does
// this configuration saturate?" by ramping the offered rate across whole
// deterministic runs until an overload criterion trips, then bisecting
// to the knee (internal/workload/capacity). Where the W and S series
// measure fixed operating points, the K series finds the operating
// envelope — the number a capacity planner actually wants. Like the
// other opt-in series it runs only behind explicit request (threadstudy
// -series k or -experiment K1..K3) and is kept out of the pinned
// profiled sweep (TestSweepPayload): a knee search's event count is a
// step function of the measured knee, useless as a regression pin.

// kneeWindow scales the per-point injection window to the run mode.
func kneeWindow(cfg Config, d vclock.Duration) vclock.Duration {
	if cfg.Quick {
		return d / 2
	}
	return d
}

// kneeHorizon bounds one measured run: the injection window plus half
// again for draining, so a healthy point completes everything it
// offered and an overloaded point visibly does not.
func kneeHorizon(window vclock.Duration) vclock.Duration {
	return window + window/2
}

// kneeEchoRunner measures one single-world operating point: a 200-thread
// session pool under open-loop Poisson load with 200us constant service,
// compiled through the general cohorts kind. Offered load scales with
// the probed rate so every point injects over the same virtual window.
func kneeEchoRunner(cfg Config, window vclock.Duration) capacity.Runner {
	return func(rate float64) capacity.Point {
		sp := &spec.Spec{Schema: spec.Schema, Name: "k1-echo-knee", Kind: spec.KindCohorts,
			Cohorts: []spec.Cohort{{
				Name: "echo", Sessions: 200, Requests: int64(rate * window.Seconds()),
				Arrival:  &spec.Arrival{Process: spec.ProcPoisson, Rate: rate},
				Service:  &spec.Service{Dist: spec.DistConst, MeanUS: 200},
				Priority: "normal",
			}},
			HorizonUS: kneeHorizon(window).Micros(),
		}
		w, run := startSpec(cfg, sp)
		defer w.Shutdown()
		w.Run(vclock.Time(0).Add(run.Horizon))
		s := run.Load()
		return capacity.Point{Offered: s.Offered, Completed: s.Completed,
			P99US: int64(s.Latency.Percentile(0.99))}
	}
}

// kneeFleetRunner measures one fleet operating point: a three-instance
// cedar cluster with 12 sessions each, 500us service, and a short drain
// so overload shows up as undone work, under the given router.
func kneeFleetRunner(cfg Config, router string, window vclock.Duration) capacity.Runner {
	return func(rate float64) capacity.Point {
		sum, err := cluster.Run(cluster.Spec{
			Preset:    "cedar",
			Instances: 3,
			Sessions:  12,
			Router:    router,
			Seed:      cfg.seed(),
			Requests:  int64(rate * window.Seconds()),
			Rate:      rate,
			Service:   500 * vclock.Microsecond,
			Drain:     250 * vclock.Millisecond,
			Shards:    cfg.Shards,
			Hooks:     cfg.Hooks,
		})
		if err != nil {
			panic(err) // the sweep's specs are literals; failing to build is a bug
		}
		return capacity.Point{Offered: sum.Offered, Completed: sum.Completed, P99US: sum.P99Us}
	}
}

// kneeSLORunner measures one scheduling-policy operating point: the S4
// promptness shape (interactive echo over a 4-thread batch pool) with
// the interactive cohort's rate probed. The verdict reads only the
// interactive class — the knee under test is keystroke promptness, not
// batch completion.
func kneeSLORunner(cfg Config, policy string, window vclock.Duration) capacity.Runner {
	return func(rate float64) capacity.Point {
		sp := sloSpec("k3-promptness-knee", kneeHorizon(window),
			&spec.Batch{Workers: 4, ChunkUS: (2 * vclock.Millisecond).Micros(),
				SLOUS: (15 * vclock.Millisecond).Micros(), Priority: "background"},
			sloCohort("interactive", 24, int64(rate*window.Seconds()), rate,
				vclock.Millisecond, 30*vclock.Millisecond, "high"))
		sum := runPolicy(cfg, policy, sp)
		for _, cs := range sum.Classes {
			if cs.Class == "interactive" {
				return capacity.Point{Offered: cs.Offered, Completed: cs.Completed, P99US: cs.P99US}
			}
		}
		return capacity.Point{}
	}
}

// kneeTable renders one sweep's measured points in probe order.
func kneeTable(res *capacity.Result) *stats.Table {
	t := stats.NewTable(fmt.Sprintf("%s: ramp and bisection probes", res.Name),
		"Rate", "Offered", "Done", "Ratio", "p99", "Verdict")
	for _, p := range res.Points {
		verdict := "ok"
		if p.Overloaded {
			verdict = p.Reason
		}
		t.AddRowf("%g", p.Rate, "%d", p.Offered, "%d", p.Completed,
			"%.3f", p.Ratio, "%s", vclock.Duration(p.P99US), "%s", verdict)
	}
	return t
}

// kneeSummary renders the cross-configuration knee comparison.
func kneeSummary(title string, results ...*capacity.Result) *stats.Table {
	t := stats.NewTable(title, "Config", "Knee rate", "Saturated", "Probes")
	for _, r := range results {
		t.AddRowf("%s", r.Name, "%g req/s", r.KneeRate, "%t", r.Saturated, "%d", len(r.Points))
	}
	return t
}

// CapacityEcho (K1) finds the saturation knee of a single W1-shaped
// world: one CPU, 200us constant service, so the analytic capacity is
// 5000 req/s and the measured knee prices the scheduler's overhead
// against it.
func CapacityEcho(cfg Config) *Report {
	win := kneeWindow(cfg, 2*vclock.Second)
	res := capacity.Find(capacity.Sweep{
		Name: "k1-echo", Start: 1000, MaxSteps: 5,
		Criterion: capacity.Criterion{P99SLOUS: 5000, MinRatio: 0.95},
	}, kneeEchoRunner(cfg, win))
	return &Report{ID: "K1", Title: "Saturation knee of the open-loop echo server",
		Tables: []*stats.Table{kneeTable(res), kneeSummary("Knee", res)},
		Notes: []string{
			fmt.Sprintf("200us constant service on one CPU bounds capacity at 5000 req/s; the measured knee is %g req/s (saturated=%t)", res.KneeRate, res.Saturated),
			"each probe is one full deterministic run at a fixed seed — the whole search, probes and knee, is byte-reproducible.",
		},
		Capacity: []*capacity.Result{res}}
}

// CapacityFleet (K2) finds the knee of a three-instance cedar fleet
// under round-robin vs least-loaded routing: load-aware routing should
// carry the fleet closer to its aggregate capacity before the tail or
// the completion ratio gives out.
func CapacityFleet(cfg Config) *Report {
	win := kneeWindow(cfg, vclock.Second)
	crit := capacity.Criterion{P99SLOUS: 10_000, MinRatio: 0.90}
	rr := capacity.Find(capacity.Sweep{
		Name: "k2-fleet-rr", Start: 750, MaxSteps: 5, Bisect: 2, Criterion: crit,
	}, kneeFleetRunner(cfg, cluster.RouteRoundRobin, win))
	ll := capacity.Find(capacity.Sweep{
		Name: "k2-fleet-least-loaded", Start: 750, MaxSteps: 5, Bisect: 2, Criterion: crit,
	}, kneeFleetRunner(cfg, cluster.RouteLeastLoaded, win))
	return &Report{ID: "K2", Title: "Fleet capacity knee: round-robin vs least-loaded routing",
		Tables: []*stats.Table{kneeTable(rr), kneeTable(ll),
			kneeSummary("Knee by router", rr, ll)},
		Notes: []string{
			"three cedar instances share the offered load; the cedar background population steals cycles, so",
			"the fleet knee sits below the bare 3x2000 req/s service bound and moves with the router's skill;",
			fmt.Sprintf("rr knee %g req/s vs least-loaded knee %g req/s under the same p99/ratio criterion.", rr.KneeRate, ll.KneeRate),
		},
		Capacity: []*capacity.Result{rr, ll}}
}

// CapacityPolicy (K3) measures how the scheduling policy shifts the
// interactive knee on the S4 promptness shape: the hybrid's reserved
// batch share is paid for in interactive capacity, and the knee shift
// is that price, measured.
func CapacityPolicy(cfg Config) *Report {
	win := kneeWindow(cfg, 2*vclock.Second)
	crit := capacity.Criterion{P99SLOUS: 30_000, MinRatio: 0.95}
	pcr := capacity.Find(capacity.Sweep{
		Name: "k3-pcr-rr", Start: 200, MaxSteps: 5, Criterion: crit,
	}, kneeSLORunner(cfg, "pcr-rr", win))
	hyb := capacity.Find(capacity.Sweep{
		Name: "k3-hybrid", Start: 200, MaxSteps: 5, Criterion: crit,
	}, kneeSLORunner(cfg, "hybrid:slice=10ms,share=0.3", win))
	return &Report{ID: "K3", Title: "Policy knee shift: pcr-rr vs hybrid on the promptness mix",
		Tables: []*stats.Table{kneeTable(pcr), kneeTable(hyb),
			kneeSummary("Interactive knee by policy", pcr, hyb)},
		Notes: []string{
			"the criterion reads only the interactive class (p99 over its 30ms SLO, or undone work): the",
			"hybrid's 30% batch share bounds batch wait at every rate, and this sweep prices that guarantee",
			fmt.Sprintf("in interactive headroom: pcr-rr knee %g req/s vs hybrid knee %g req/s.", pcr.KneeRate, hyb.KneeRate),
		},
		Capacity: []*capacity.Result{pcr, hyb}}
}

// KSeries returns the capacity experiments, in presentation order. Like
// the other opt-in series they are not part of All() and stay out of
// the pinned profiled sweep.
func KSeries() []Experiment {
	return []Experiment{
		{"K1", "Saturation knee of the open-loop echo server", CapacityEcho},
		{"K2", "Fleet capacity knee: round-robin vs least-loaded routing", CapacityFleet},
		{"K3", "Policy knee shift: pcr-rr vs hybrid on the promptness mix", CapacityPolicy},
	}
}

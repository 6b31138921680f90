// Package experiments regenerates every table and figure-equivalent of
// the paper's evaluation: Tables 1–4 and the case-study results the paper
// reports in prose (execution-interval distributions, priority usage, the
// §5.2 slack process, the §6.3 quantum sweep, §6.1 spurious lock
// conflicts, §6.2 priority inversion, §5.6 Xlib vs Xl, and the §5.3
// common mistakes). Each experiment has a stable ID (T1..T4, F1..F8) used
// by cmd/threadstudy, the benchmark harness and EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vclock"
	"repro/internal/workload/capacity"
)

// Config scales the experiments. The zero value selects full-length runs.
type Config struct {
	// Quick shortens measurement windows ~3x for tests and -short runs.
	Quick bool
	// Seed drives all randomness. Zero selects the default seed 1 (a
	// deliberate remap so the zero Config is usable); callers that need
	// to distinguish "unset" from an explicit 0 — seed-sweep scripts —
	// must validate before building the Config, as cmd/threadstudy does.
	Seed int64
	// Hooks carries the observability seams (sim.Config.Hooks) into
	// every world an experiment creates — directly or through the
	// workload and xwin helpers. The observe-only hooks never affect an
	// experiment's output; the runner attaches one probe (and, when
	// profiling, one profiler set) per run via this field.
	Hooks sim.Hooks
	// Faults, when non-nil, replaces the built-in fault plan of the
	// faulted world in each R-series resilience experiment (threadstudy
	// -faults). The T and F experiments never consult it: their outputs
	// are byte-identical with or without a plan.
	Faults *fault.Plan
	// FaultSeed seeds the fault injector's private RNG; zero derives a
	// seed from Seed so fault randomness never aliases workload
	// randomness.
	FaultSeed int64
	// Policy is the scheduling-policy spec (sched.Parse syntax) the
	// load-driven W series runs under; empty means the default pcr-rr.
	// Specs must be pre-validated (cmd/threadstudy does): the
	// experiments parse with sched.MustParse, one fresh instance per
	// world, because stateful policies serve exactly one world. The T, F,
	// R, C and D series never consult it — their worlds model the paper's
	// fixed PCR discipline — and the S-series comparison ladders sweep
	// their own fixed policy lists by design.
	Policy string
	// Shards sets cluster.Spec.Shards for the C- and D-series fleets —
	// advance parallelism only, byte-identical output at any value (the
	// shard determinism tests run both series at several values). Zero
	// leaves the cluster default (serial). cmd/threadstudy passes
	// GOMAXPROCS by default so a single run uses every core inside one
	// experiment.
	Shards int
}

func (c Config) window() vclock.Duration {
	if c.Quick {
		return 10 * vclock.Second
	}
	return 30 * vclock.Second
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

func (c Config) faultSeed() int64 {
	if c.FaultSeed != 0 {
		return c.FaultSeed
	}
	return c.seed() + 0x5eed
}

// faultPlan selects the plan a resilience experiment injects into its
// faulted world: the operator's -faults plan when given, else def.
func (c Config) faultPlan(def fault.Plan) fault.Plan {
	if c.Faults != nil {
		return *c.Faults
	}
	return def
}

// hooks returns c.Hooks with the selected scheduling policy attached,
// freshly parsed so every world gets its own instance. An explicit
// "pcr-rr" parses to the shared default value, byte-identical output to
// an empty Policy. A Policy already present in c.Hooks (tests injecting
// instances directly) wins over the spec.
func (c Config) hooks() sim.Hooks {
	h := c.Hooks
	if c.Policy != "" && h.Policy == nil {
		h.Policy = sched.MustParse(c.Policy)
	}
	return h
}

// Report is one experiment's output: rendered tables plus free-form
// notes recording the paper-vs-measured comparison.
type Report struct {
	ID    string
	Title string

	Tables []*stats.Table
	Notes  []string

	// Load carries a W-series run's machine-readable throughput and
	// latency summary; nil for the T/F/R series. The runner copies it
	// into the run's Metrics so -json output includes it.
	Load *LoadSummary

	// Cluster carries a C-series run's fleet summaries, one per sweep
	// point in presentation order; nil for every other series. Like
	// Load, the runner copies it into the run's Metrics.
	Cluster []*cluster.Summary

	// Sched carries an S-series run's per-policy scheduling summaries,
	// one per ladder entry in presentation order; nil for every other
	// series. Like Load, the runner copies it into the run's Metrics.
	Sched []*SchedSummary

	// Capacity carries a K-series run's schema-versioned saturation-knee
	// records, one per configuration in presentation order; nil for
	// every other series. Like Load, the runner copies it into the run's
	// Metrics.
	Capacity []*capacity.Result
}

// String renders the report as plain text.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Markdown renders the report as GitHub-flavored markdown.
func (r *Report) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		sb.WriteString(t.Markdown())
		sb.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "> %s\n", n)
	}
	return sb.String()
}

// Experiment couples an ID with its regeneration function.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) *Report
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"T1", "Forking and thread-switching rates (Table 1)", Table1},
		{"T2", "Wait-CV and monitor entry rates (Table 2)", Table2},
		{"T3", "Number of different CVs and monitor locks used (Table 3)", Table3},
		{"T4", "Static paradigm counts (Table 4)", Table4},
		{"F1", "Execution-interval distributions (§3)", FigExecIntervals},
		{"F2", "Priority usage (§3)", FigPriorities},
		{"F3", "The X-server slack process: YIELD vs YieldButNotToMe (§5.2)", FigSlack},
		{"F4", "The effect of the time-slice quantum (§6.3)", FigQuantum},
		{"F5", "Spurious lock conflicts (§6.1)", FigSpurious},
		{"F6", "Stable priority inversion and its workarounds (§6.2)", FigInversion},
		{"F7", "Multi-threaded Xlib vs Xl (§5.6)", FigXlib},
		{"F8", "Common mistakes: IF-waits and timeout-masked notifies (§5.3)", FigMistakes},
		{"F9", "Priority inheritance for interactive systems (§7 future work)", FigInheritance},
		{"F10", "Dynamically tuned timeouts (§5.5 future work)", FigAdaptive},
		{"F11", "Multiprocessors: exploiter scaling and contention (§4.7/§5.1)", FigMultiprocessor},
		{"F12", "Keystroke echo latency and the priority structure (§1/§3)", FigEchoLatency},
		{"R1", "Crash-and-rejuvenate under the Cedar compile workload (§4.5/§5.5)", ResCrash},
		{"R2", "FORK exhaustion under keystrokes: bare TryFork vs retry policy (§5.4)", ResForkExhaustion},
		{"R3", "Induced priority inversion, watchdog detection, SystemDaemon recovery (§6.2)", ResInversion},
	}
}

// Series keys the opt-in experiment series for flag plumbing: each maps
// a one-letter -series id to its experiment list, in presentation order.
func Series() []struct {
	Key  string
	Exps []Experiment
} {
	return []struct {
		Key  string
		Exps []Experiment
	}{
		{"w", WSeries()},
		{"c", CSeries()},
		{"d", DSeries()},
		{"s", SSeries()},
		{"k", KSeries()},
	}
}

// BySeries returns the opt-in series with the given one-letter key.
func BySeries(key string) ([]Experiment, error) {
	for _, s := range Series() {
		if s.Key == key {
			return s.Exps, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown series %q", key)
}

// SeriesOf returns the one-letter key of the opt-in series owning the
// experiment ID ("" for the always-on default set).
func SeriesOf(id string) string {
	for _, s := range Series() {
		for _, e := range s.Exps {
			if strings.EqualFold(e.ID, id) {
				return s.Key
			}
		}
	}
	return ""
}

// ByID returns the experiment with the given ID (case-insensitive),
// searching the default set and the W, C, D, S and K series.
func ByID(id string) (Experiment, error) {
	all := All()
	for _, s := range Series() {
		all = append(all, s.Exps...)
	}
	for _, e := range all {
		if strings.EqualFold(e.ID, id) {
			return e, nil
		}
	}
	// List the IDs in presentation order — sorting lexicographically
	// would interleave them as "F1 F10 F11 F12 F2 ...".
	var ids []string
	for _, e := range all {
		ids = append(ids, e.ID)
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(ids, " "))
}

// Command threadstudy regenerates the tables and figures of "Using
// Threads in Interactive Systems: A Case Study" (Hauser et al., SOSP '93)
// from the simulated Cedar/GVX worlds.
//
// Usage:
//
//	threadstudy                  # run everything (T1..T4, F1..F12)
//	threadstudy -list            # list experiment IDs
//	threadstudy -experiment T2   # run one experiment
//	threadstudy -experiment T2,W1,C1
//	                             # run several, in the order given
//	                             # (duplicated IDs are a usage error)
//	threadstudy -quick           # ~3x shorter measurement windows
//	threadstudy -seed 7          # change the deterministic seed
//	threadstudy -parallel 4      # worker-pool parallelism (default GOMAXPROCS);
//	                             # output is byte-identical to -parallel 1
//	threadstudy -json out.json   # also write per-experiment metrics
//	                             # (wall time, virtual time, events, events/sec)
//	threadstudy -verify          # run each experiment twice, concurrently,
//	                             # and fail on any output difference
//	threadstudy -trace out.bin -benchmark "Cedar/Idle Cedar"
//	                             # capture a benchmark's raw event trace
//	                             # (inspect with cmd/traceview)
//	threadstudy -profile         # per-thread scheduler accounting, monitor
//	                             # contention, CV waits and §6.2 inversion
//	                             # episodes for the -benchmark world
//	threadstudy -chrometrace out.json
//	                             # export the profiled run as Chrome
//	                             # trace-event JSON (load in Perfetto)
//	threadstudy -profilejson out.json
//	                             # machine-readable accounting summary
//	threadstudy -bench BENCH.json
//	                             # fixed-seed quick sweep of every
//	                             # experiment with profiling; write the
//	                             # combined metrics+accounting JSON
//	threadstudy -faults plan.json -experiment R1
//	                             # replace the R-series' built-in fault
//	                             # plans with one loaded from JSON
//	threadstudy -faultseed 9     # reseed the injector RNG only
//	threadstudy -audit -auditmin 1 -experiment F8
//	                             # print §5.3 CV audit findings after
//	                             # each report
//	threadstudy -series w        # run the W-series open-loop load
//	                             # workloads (W1..W3) instead of the
//	                             # default T/F/R set
//	threadstudy -series c,d      # run several opt-in series in the
//	                             # order given: w (load), c (cluster
//	                             # fleets), d (resilience), s
//	                             # (scheduling policies), k (capacity
//	                             # knees); duplicate or unknown keys
//	                             # are a usage error
//	threadstudy -series k -json CAPACITY.json
//	                             # run the K-series capacity sweeps and
//	                             # write the schema-versioned knee
//	                             # records into the metrics summary
//	threadstudy -series w -policy mlfq
//	                             # run the W-series under a non-default
//	                             # scheduling policy (name[:key=val,...];
//	                             # see cmd/schedcheck -list for specs)
//	threadstudy -series w -experiment W1 -json -
//	                             # one load workload, with throughput and
//	                             # latency percentiles in the summary
//	                             # (-experiment ids from an opt-in series
//	                             # require that series in -series)
//	threadstudy -series c -experiment C2 -json -
//	                             # one fleet sweep, with per-instance and
//	                             # aggregate SLO records in the summary
//	threadstudy -series d -experiment D3 -json -
//	                             # one resilience experiment, with the
//	                             # graceful-degradation buckets and the
//	                             # mechanism ledger in the summary
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/cliflag"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/paradigm"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// outputSchema versions every machine-readable output this command
// writes (-json, -profilejson, -bench). Downstream tooling checks it
// before parsing; the schedcheck replay-token prefix "v1" is the same
// version 1. The schemas are documented in EXPERIMENTS.md.
const outputSchema = 1

// jsonSummary is the machine-readable -json report: enough context to
// reproduce the run (seed, quick, parallelism) plus one Metrics record
// per experiment in presentation order. BENCH_*.json trajectory tracking
// consumes these.
type jsonSummary struct {
	Schema      int                   `json:"schema"`
	Seed        int64                 `json:"seed"`
	Quick       bool                  `json:"quick"`
	Parallelism int                   `json:"parallelism"`
	GoMaxProcs  int                   `json:"gomaxprocs"`
	Verify      bool                  `json:"verify,omitempty"`
	TotalWall   time.Duration         `json:"total_wall_ns"`
	Experiments []experiments.Metrics `json:"experiments"`
}

// run is main with its dependencies injected, so the CLI surface —
// flag validation included — is testable. It returns the process exit
// code: 0 success, 1 runtime failure, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := cliflag.New("threadstudy", stderr)
	var (
		list      = fs.Bool("list", false, "list experiment IDs and exit")
		expID     = fs.String("experiment", "", "run selected experiments by ID, comma-separated (default: all; opt-in series ids need their series in -series)")
		series    = fs.String("series", "", "enable opt-in experiment series, comma-separated keys: w (load), c (cluster), d (resilience), s (scheduling), k (capacity)")
		policy    = fs.String("policy", "", "scheduling policy for the W-series worlds, as name[:key=val,...] (default pcr-rr)")
		quick     = fs.Bool("quick", false, "use ~3x shorter measurement windows")
		format    = fs.String("format", "text", "output format: text or markdown")
		verify    = fs.Bool("verify", false, "run each experiment twice concurrently and fail on nondeterminism")
		seed      = fs.Int64("seed", 1, "deterministic seed (must be nonzero)")
		parallel  = fs.Int("parallel", runtime.GOMAXPROCS(0), "number of experiments to run concurrently")
		jsonOut   = fs.String("json", "", "write a machine-readable metrics summary to this file (\"-\" for stdout)")
		traceOut  = fs.String("trace", "", "write a benchmark's binary event trace to this file")
		benchName = fs.String("benchmark", "Cedar/Idle Cedar", "benchmark for -trace, as System/Name")
		traceDur  = fs.Duration("traceduration", 5*time.Second, "virtual duration for -trace (wall-clock syntax, interpreted as virtual time)")
		faultsIn  = fs.String("faults", "", "JSON fault plan replacing the R-series experiments' built-in plans")
		faultSeed = fs.Int64("faultseed", 0, "seed for the fault injector RNG (default: derived from -seed)")
		audit     = fs.Bool("audit", false, "run the §5.3 CV auditors and print findings after each report")
		auditMin  = fs.Int("auditmin", 10, "minimum observed waits before a CV is auditable (lower is more sensitive)")
		profFlag  = fs.Bool("profile", false, "print per-thread scheduler accounting for the -benchmark world")
		chromeOut = fs.String("chrometrace", "", "write the profiled -benchmark run as Chrome trace-event JSON to this file")
		profJSON  = fs.String("profilejson", "", "write the profiled run's accounting summary as JSON (\"-\" for stdout)")
		benchOut  = fs.String("bench", "", "run the fixed-seed quick sweep with profiling and write combined JSON to this file (\"-\" for stdout)")
		benchBase = fs.String("benchbaseline", "", "compare the -bench sweep against this baseline JSON and fail if aggregate events/sec regresses")
		shards    = fs.Int("shards", 0, "cluster advance parallelism for the C/D-series fleets (0: GOMAXPROCS; output is byte-identical at any value)")
	)
	if err := fs.Parse(args); err != nil {
		return cliflag.ExitUsage
	}

	if err := fs.NoArgs(); err != nil {
		return fs.Fail(err)
	}
	if err := cliflag.OneOf("format", *format, "text", "markdown"); err != nil {
		return fs.Fail(err)
	}
	// Config.seed() would silently remap 0 to the default seed 1, which
	// corrupts seed sweeps; reject it instead.
	if err := cliflag.CheckSeed(*seed, "0 is not a distinct seed (it selects the default, 1); pick a nonzero seed"); err != nil {
		return fs.Fail(err)
	}
	if err := cliflag.MinInt("parallel", *parallel, 1, "need at least one worker"); err != nil {
		return fs.Fail(err)
	}
	if limit := runtime.NumCPU() * 4; *parallel > limit {
		// Results are deterministic regardless, so this is a warning, not
		// an error: the extra workers only add scheduler thrash.
		fs.Warnf("-parallel %d exceeds %d (4x %d CPUs); extra workers add contention, not speed",
			*parallel, limit, runtime.NumCPU())
	}
	if err := cliflag.MinInt("auditmin", *auditMin, 1, "a CV needs at least one observed wait to be auditable"); err != nil {
		return fs.Fail(err)
	}
	if err := cliflag.MinInt("shards", *shards, 0, "negative shard counts are meaningless; 0 selects GOMAXPROCS"); err != nil {
		return fs.Fail(err)
	}
	if *shards == 0 {
		*shards = runtime.GOMAXPROCS(0)
	}
	if *benchBase != "" && *benchOut == "" {
		return fs.Fail(fmt.Errorf("-benchbaseline requires -bench"))
	}
	// -series enables opt-in experiment series by one-letter key, in the
	// order given. A duplicated or unknown key is a usage error.
	seriesKeys := cliflag.List(*series)
	if err := cliflag.NoDuplicates("series", seriesKeys); err != nil {
		return fs.Fail(err)
	}
	enabled := make(map[string]bool, len(seriesKeys))
	for _, key := range seriesKeys {
		if _, err := experiments.BySeries(key); err != nil {
			return fs.Fail(err)
		}
		enabled[key] = true
	}
	// Validate the policy spec at the flag boundary: a typo'd name or
	// parameter is a usage error here, not a panic deep inside a world.
	if *policy != "" {
		if _, err := sched.Parse(*policy); err != nil {
			return fs.Fail(err)
		}
	}
	// -experiment takes a comma-separated ID list; a duplicated ID would
	// silently run (and print) an experiment twice, so it is a usage
	// error, not a request. IDs belonging to an opt-in series require
	// that series in -series — the same gate every series now shares.
	expIDs := cliflag.List(*expID)
	if err := cliflag.NoDuplicates("experiment", expIDs); err != nil {
		return fs.Fail(err)
	}
	for _, id := range expIDs {
		if key := experiments.SeriesOf(id); key != "" && !enabled[key] {
			return fs.Fail(fmt.Errorf("-experiment %s selects an opt-in experiment; enable its series with -series %s", id, key))
		}
	}
	var plan *fault.Plan
	if *faultsIn != "" {
		p, err := fault.Load(*faultsIn)
		if err != nil {
			return fs.Fail(err)
		}
		// -faults replaces the R-series' single-world plans; the
		// instance-scoped kinds only make sense inside a cluster fleet
		// (the D-series carries its own built-in plans). fault.New would
		// reject the plan anyway, but deep inside the run — fail at the
		// flag boundary instead.
		if p.HasInstanceFaults() {
			return fs.Fail(fmt.Errorf("-faults %s: plan has cluster-scoped fault kinds (crash_instance/stall_instance/degrade_instance); -faults drives the single-world R experiments, which cannot host them", *faultsIn))
		}
		plan = &p
	}

	// seriesSet is the enabled opt-in series' experiments, in the order
	// the keys were given; empty when no series was enabled.
	var seriesSet []experiments.Experiment
	for _, key := range seriesKeys {
		exps, _ := experiments.BySeries(key)
		seriesSet = append(seriesSet, exps...)
	}

	if *list {
		set := experiments.All()
		if len(seriesSet) > 0 {
			set = seriesSet
		}
		for _, e := range set {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}

	if *traceOut != "" || *profFlag || *chromeOut != "" || *profJSON != "" {
		dur, err := cliflag.VirtualDuration("traceduration", *traceDur)
		if err != nil {
			return fs.Fail(err)
		}
		if *traceOut != "" {
			if err := captureTrace(stdout, *traceOut, *benchName, *seed, dur); err != nil {
				return fs.Error(err)
			}
			return cliflag.ExitOK
		}
		err = profileBenchmark(stdout, profileOpts{
			bench:    *benchName,
			seed:     *seed,
			dur:      dur,
			markdown: *format == "markdown",
			print:    *profFlag,
			chrome:   *chromeOut,
			jsonPath: *profJSON,
		})
		if err != nil {
			return fs.Error(err)
		}
		return cliflag.ExitOK
	}

	if *benchOut != "" {
		if err := runBench(stdout, *benchOut, *parallel, *shards, *benchBase); err != nil {
			return fs.Error(err)
		}
		return cliflag.ExitOK
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed, Faults: plan, FaultSeed: *faultSeed, Shards: *shards, Policy: *policy}
	var todo []experiments.Experiment
	switch {
	case len(expIDs) > 0:
		for _, id := range expIDs {
			e, err := experiments.ByID(id)
			if err != nil {
				return fs.Error(err)
			}
			todo = append(todo, e)
		}
	case len(seriesSet) > 0:
		todo = seriesSet
	default:
		todo = experiments.All()
	}
	if *faultSeed != 0 && plan == nil {
		// Without -faults, only the R-series experiments (built-in plans)
		// consult the injector seed. Flag the silently ignored knob. (The
		// D-series injects instance faults, but from the specs' own
		// deterministic plans: its fault seed derives from the run seed,
		// not from -faultseed.)
		hasR := false
		for _, e := range todo {
			hasR = hasR || strings.HasPrefix(e.ID, "R")
		}
		if !hasR {
			target := *expID
			if target == "" {
				var names []string
				for _, key := range seriesKeys {
					names = append(names, strings.ToUpper(key))
				}
				target = "the " + strings.Join(names, "/") + " series"
			}
			fs.Warnf("-faultseed %d has no effect on %s without -faults (only R-series experiments inject faults)",
				*faultSeed, target)
		}
	}

	failed := false
	start := time.Now()
	outcomes := experiments.RunWith(cfg, experiments.Options{
		Parallelism:   *parallel,
		Verify:        *verify,
		Audit:         *audit,
		AuditMinWaits: *auditMin,
		Experiments:   todo,
		OnResult: func(o experiments.Outcome) {
			if *verify {
				if o.Mismatch {
					fmt.Fprintf(stderr, "threadstudy: %s is NOT deterministic\n", o.Report.ID)
					failed = true
				} else {
					fmt.Fprintf(stdout, "%-4s deterministic ok\n", o.Report.ID)
				}
				return
			}
			if *format == "markdown" {
				fmt.Fprintln(stdout, o.Report.Markdown())
			} else {
				fmt.Fprintln(stdout, o.Report.String())
			}
			if *audit {
				if len(o.Audit) == 0 {
					fmt.Fprintf(stdout, "audit %s: no suspicious condition variables\n\n", o.Report.ID)
				} else {
					for _, f := range o.Audit {
						fmt.Fprintf(stdout, "audit %s: %s\n", o.Report.ID, f)
					}
					fmt.Fprintln(stdout)
				}
			}
		},
	})
	totalWall := time.Since(start)

	if *jsonOut != "" {
		sum := jsonSummary{
			Schema:      outputSchema,
			Seed:        *seed,
			Quick:       *quick,
			Parallelism: *parallel,
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			Verify:      *verify,
			TotalWall:   totalWall,
		}
		for _, o := range outcomes {
			sum.Experiments = append(sum.Experiments, o.Metrics)
		}
		if err := writeJSON(*jsonOut, stdout, sum); err != nil {
			return fs.Error(err)
		}
	}
	if failed {
		return cliflag.ExitFailure
	}
	return cliflag.ExitOK
}

// writeJSON marshals sum to path, or to stdout when path is "-".
func writeJSON(path string, stdout io.Writer, sum jsonSummary) error {
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// findBench resolves a System/Name benchmark flag value.
func findBench(benchName string) (workload.Benchmark, error) {
	system, name, ok := strings.Cut(benchName, "/")
	if !ok {
		return workload.Benchmark{}, fmt.Errorf("benchmark must be System/Name, e.g. %q", "Cedar/Idle Cedar")
	}
	b, err := workload.FindBenchmark(system, name)
	if err != nil {
		var names []string
		for _, bb := range workload.AllBenchmarks() {
			names = append(names, bb.System+"/"+bb.Name)
		}
		sort.Strings(names)
		return workload.Benchmark{}, fmt.Errorf("%v; available: %s", err, strings.Join(names, ", "))
	}
	return b, nil
}

// captureTrace runs one benchmark and writes its raw event stream.
func captureTrace(stdout io.Writer, path, benchName string, seed int64, dur vclock.Duration) error {
	b, err := findBench(benchName)
	if err != nil {
		return err
	}
	if dur <= 0 {
		dur = 5 * vclock.Second
	}
	var buf trace.Buffer
	w := sim.NewWorld(sim.Config{Trace: &buf, Seed: seed, SystemDaemon: true})
	defer w.Shutdown()
	reg := paradigm.NewRegistry()
	b.Build(w, reg)
	w.Run(vclock.Time(0).Add(dur))

	names := make(map[int32]string)
	for _, th := range w.Threads() {
		names[th.ID()] = th.Name()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteTrace(f, trace.Trace{Events: buf.Events, Names: names}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d events, %d thread names (%s of virtual time) to %s\n", buf.Len(), len(names), dur, path)
	return nil
}

// profileOpts parameterizes one profiled benchmark run.
type profileOpts struct {
	bench    string
	seed     int64
	dur      vclock.Duration
	markdown bool
	print    bool   // print the accounting report
	chrome   string // Chrome trace-event JSON output path, "" to skip
	jsonPath string // accounting-summary JSON path, "" to skip, "-" for stdout
}

// profileBenchmark runs one benchmark with an attached profiler and
// renders the per-thread scheduler accounting in the requested forms.
func profileBenchmark(stdout io.Writer, o profileOpts) error {
	b, err := findBench(o.bench)
	if err != nil {
		return err
	}
	set := profile.NewSet()
	set.KeepSpans = o.chrome != ""
	w := sim.NewWorld(sim.Config{
		Seed:         o.seed,
		SystemDaemon: true,
		Hooks:        sim.Hooks{OnWorld: set.Attach},
	})
	defer w.Shutdown()
	reg := paradigm.NewRegistry()
	b.Build(w, reg)
	w.Run(vclock.Time(0).Add(o.dur))

	prof := set.Finish()[0]
	if o.print {
		rep := profile.NewReport(prof)
		if o.markdown {
			fmt.Fprintln(stdout, rep.Markdown())
		} else {
			fmt.Fprintln(stdout, rep.String())
		}
	}
	if o.chrome != "" {
		f, err := os.Create(o.chrome)
		if err != nil {
			return err
		}
		werr := profile.WriteChromeTrace(f, prof)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
		fmt.Fprintf(stdout, "wrote Chrome trace (%d spans, %s of virtual time) to %s\n",
			len(prof.Spans), o.dur, o.chrome)
	}
	if o.jsonPath != "" {
		sum := struct {
			Schema int `json:"schema"`
			profile.Summary
		}{outputSchema, profile.Summarize(prof)}
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if o.jsonPath == "-" {
			_, err = stdout.Write(data)
			return err
		}
		if err := os.WriteFile(o.jsonPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote accounting summary to %s\n", o.jsonPath)
	}
	return nil
}

// benchExperiment is one sweep entry of the -bench summary: the run's
// metrics plus its aggregated scheduler accounting.
type benchExperiment struct {
	experiments.Metrics
	Profile *profile.Summary `json:"profile,omitempty"`
}

// benchSummary is the -bench output (BENCH_PR7.json): a fixed-seed quick
// sweep of every experiment — the T/F/R set plus the W-series load
// workloads, the C-series cluster fleets, and the D-series resilience
// study — with profiling on, plus the accounting summary of the default
// benchmark world. Wall-clock fields vary between machines; every
// virtual-time field is deterministic.
type benchSummary struct {
	Schema      int               `json:"schema"`
	Seed        int64             `json:"seed"`
	Quick       bool              `json:"quick"`
	Parallelism int               `json:"parallelism"`
	Shards      int               `json:"shards,omitempty"`
	GoMaxProcs  int               `json:"gomaxprocs"`
	TotalWall   time.Duration     `json:"total_wall_ns"`
	Experiments []benchExperiment `json:"experiments"`
	Benchmark   struct {
		Name    string          `json:"name"`
		Profile profile.Summary `json:"profile"`
	} `json:"benchmark"`
}

// runBench executes the benchmark sweep and writes the combined JSON.
// A nonzero accounting residue anywhere fails the run: the exactness
// invariant is part of what the bench artifact certifies. When baseline
// names a previous bench artifact, the run also fails if aggregate
// events/sec regresses below it.
func runBench(stdout io.Writer, path string, parallel, shards int, baseline string) error {
	// The sweep is a throughput benchmark over fixed deterministic work:
	// virtual results do not depend on collector cadence, so amortize GC
	// across the run instead of collecting at the default 100% heap-growth
	// trigger (world setup — goroutine stacks, registries — dominates
	// allocation; steady-state scheduling allocates nothing).
	defer debug.SetGCPercent(debug.SetGCPercent(600))
	cfg := experiments.Config{Quick: true, Seed: 1, Shards: shards}
	start := time.Now()
	outcomes := experiments.RunWith(cfg, experiments.Options{
		Parallelism: parallel,
		Profile:     true,
		// The sweep covers the full population: the T/F/R artifact set,
		// the W-series load workloads, the C-series cluster fleets, and
		// the D-series resilience study, so the bench artifact tracks
		// report fidelity, server-scale throughput, fleet-scale SLOs and
		// fault-tolerance behavior together.
		Experiments: append(append(append(experiments.All(),
			experiments.WSeries()...), experiments.CSeries()...), experiments.DSeries()...),
	})
	sum := benchSummary{
		Schema:      outputSchema,
		Seed:        1,
		Quick:       true,
		Parallelism: parallel,
		Shards:      shards,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		TotalWall:   time.Since(start),
	}
	for _, o := range outcomes {
		sum.Experiments = append(sum.Experiments, benchExperiment{Metrics: o.Metrics, Profile: o.Profile})
		if o.Profile != nil && o.Profile.Residue != 0 {
			return fmt.Errorf("%s: accounting residue %dus (want 0)", o.Metrics.ID, int64(o.Profile.Residue))
		}
	}

	b, err := findBench("Cedar/Idle Cedar")
	if err != nil {
		return err
	}
	set := profile.NewSet()
	w := sim.NewWorld(sim.Config{
		Seed:         1,
		SystemDaemon: true,
		Hooks:        sim.Hooks{OnWorld: set.Attach},
	})
	defer w.Shutdown()
	reg := paradigm.NewRegistry()
	b.Build(w, reg)
	w.Run(vclock.Time(0).Add(5 * vclock.Second))
	sum.Benchmark.Name = "Cedar/Idle Cedar"
	sum.Benchmark.Profile = set.Summary()
	if r := sum.Benchmark.Profile.Residue; r != 0 {
		return fmt.Errorf("benchmark profile: accounting residue %dus (want 0)", int64(r))
	}

	if baseline != "" {
		// With the summary going to stdout, keep stdout pure JSON: the
		// gate still fails loudly, only its progress line is suppressed.
		gateOut := stdout
		if path == "-" {
			gateOut = io.Discard
		}
		if err := checkBenchBaseline(gateOut, sum, baseline); err != nil {
			return err
		}
	}

	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote bench summary (%d experiments) to %s\n", len(sum.Experiments), path)
	return nil
}

// aggregateRate returns total events over total per-experiment wall time
// in events/sec — the headline the BENCH_*.json trajectory tracks.
func aggregateRate(exps []benchExperiment) (events int64, rate float64) {
	var wall time.Duration
	for _, e := range exps {
		events += e.Events
		wall += e.WallTime
	}
	if wall <= 0 {
		return events, 0
	}
	return events, float64(events) / wall.Seconds()
}

// checkBenchBaseline fails the bench run if the new sweep's aggregate
// events/sec fell below the baseline artifact's, or if the deterministic
// per-experiment event counts drifted — a drifted count means the two
// sweeps did different work, which would make the rate gate meaningless.
func checkBenchBaseline(stdout io.Writer, sum benchSummary, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("benchbaseline: %w", err)
	}
	var base benchSummary
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("benchbaseline %s: %w", path, err)
	}
	baseEvents := make(map[string]int64, len(base.Experiments))
	for _, e := range base.Experiments {
		baseEvents[e.ID] = e.Events
	}
	for _, e := range sum.Experiments {
		if want, ok := baseEvents[e.ID]; ok && want != e.Events {
			return fmt.Errorf("benchbaseline %s: %s processed %d events, baseline %d — deterministic work drifted",
				path, e.ID, e.Events, want)
		}
	}
	_, baseRate := aggregateRate(base.Experiments)
	events, rate := aggregateRate(sum.Experiments)
	fmt.Fprintf(stdout, "bench aggregate: %d events at %.0f events/sec (baseline %.0f, %.2fx)\n",
		events, rate, baseRate, rate/baseRate)
	if rate < baseRate {
		return fmt.Errorf("benchbaseline %s: aggregate %.0f events/sec regressed below baseline %.0f",
			path, rate, baseRate)
	}
	return nil
}

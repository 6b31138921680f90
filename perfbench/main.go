// Command perfbench is the repository's host-cost benchmark. It runs one
// workload as a closed loop of back-to-back iterations in this process,
// checks every iteration's simulated output, and prints the end-to-end
// metrics (-trace 0) or the per-layer attribution from a separate traced
// run (-trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 24, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	perfbench -workload echo-fleet -seed 1 -seconds 20 -trace 0
//
// perfbench/run.py builds this package from the checkout and runs it with
// the same flags.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/profile"
	"repro/internal/sim"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 20, "how long to measure, in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findScenario(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	if *seed == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seed must be nonzero")
		return 2
	}

	// Warm-up: one untraced iteration, excluded from every median. Its
	// output is the reference every measured iteration must reproduce.
	warm, err := iterate(w, *seed, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	refProblems := warm.out.problems
	if exp, ok := expectedFor(w.name, *seed); ok && (exp.Events != warm.events || exp.Digest != warm.out.digest) {
		refProblems = append(refProblems, fmt.Sprintf("seed %d: events %d digest %s, expected events %d digest %s",
			*seed, warm.events, warm.out.digest, exp.Events, exp.Digest))
	}
	for _, p := range refProblems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check: %s\n", w.name, p)
	}
	check := func(s sample) bool {
		return len(refProblems) == 0 && len(s.out.problems) == 0 &&
			s.events == warm.events && s.out.digest == warm.out.digest
	}

	budget := time.Duration(*seconds * float64(time.Second))
	res := result{Metrics: map[string]metric{}}
	if *traced == 0 {
		made := decoratorsMade.Load()
		samples, err := loop(w, *seed, false, budget)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		res.tally(samples, check)
		if decoratorsMade.Load() != made {
			fmt.Fprintln(os.Stderr, "perfbench: the untraced run attached a decorator")
			res.Correct = false
		}
		if err := endToEnd(samples, res.Metrics); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		walls := make([]float64, len(samples))
		for i, s := range samples {
			walls[i] = s.wall().Seconds()
		}
		q := quartiles(walls)
		fmt.Printf("wall_s over %d iterations: p25=%.6f p50=%.6f p75=%.6f min=%.6f\n", len(walls), q[0], q[1], q[2], slices.Min(walls))
	} else {
		if err := perLayer(w, *seed, budget, check, &res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
	}
	printReport(w.name, *seed, warm, res)
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range scenarios {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// --- one iteration ------------------------------------------------------

// sample is one timed iteration.
type sample struct {
	setup, worldNew, run, finish, shutdown time.Duration
	cpu                                    time.Duration // user+sys over run and finish

	events  int64
	worlds  int64
	virtual float64 // simulated seconds, summed over worlds

	allocBytes, allocObjects uint64
	gcCycles                 uint32
	gcPause                  time.Duration
	goroutines               int // live goroutines once set-up is done

	out outcome
	dec decoratorTotals // traced iterations only
}

// wall is the end-to-end span: from the first Run until results are
// summarized.
func (s sample) wall() time.Duration { return s.run + s.finish }

// iterate sets up, runs, summarizes and shuts down one iteration of w,
// traced or not.
func iterate(w scenario, seed int64, traced bool) (sample, error) {
	e := &env{seed: seed, probe: &sim.Probe{}}
	if traced {
		e.dec = &decorators{}
	}
	return measure(w, e)
}

// measure runs one iteration of w in e. Each iteration starts from a
// collected heap so iterations do not pay for each other's garbage.
func measure(w scenario, e *env) (sample, error) {
	var s sample
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	t0 := time.Now()
	if e.dec != nil {
		e.dec.beginSetup(t0)
	}
	inst, err := w.setup(e)
	if err != nil {
		return s, fmt.Errorf("set-up: %w", err)
	}
	t1 := time.Now()
	if e.dec != nil {
		s.worldNew = e.dec.endSetup()
	}
	s.goroutines = runtime.NumGoroutine()
	c0 := cpuTime()
	err = inst.run()
	t2 := time.Now()
	if err == nil {
		s.out = inst.finish()
	}
	t3 := time.Now()
	c1 := cpuTime()
	inst.shutdown()
	t4 := time.Now()
	if err != nil {
		return s, fmt.Errorf("run: %w", err)
	}
	runtime.ReadMemStats(&m1)

	s.setup, s.run, s.finish, s.shutdown = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	s.cpu = c1 - c0
	s.events = e.probe.Events()
	s.worlds = e.probe.Worlds()
	s.virtual = e.probe.VirtualTime().Seconds()
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.allocObjects = m1.Mallocs - m0.Mallocs
	s.gcCycles = m1.NumGC - m0.NumGC
	s.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	if e.dec != nil {
		s.dec = e.dec.totals()
	}
	return s, nil
}

// loop runs iterations back to back until budget has elapsed, and at
// least minIterations of them.
func loop(w scenario, seed int64, traced bool, budget time.Duration) ([]sample, error) {
	const minIterations = 3
	var out []sample
	start := time.Now()
	for len(out) < minIterations || time.Since(start) < budget {
		s, err := iterate(w, seed, traced)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the peak resident set of this program's own address
// space in bytes (VmHWM). getrusage's Maxrss would not do: Linux carries
// the launching process's peak across exec, so under run.py it reports
// Python's peak (about 14 MB) whenever the workload's is smaller.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb * 1024, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// --- metrics --------------------------------------------------------------

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally adds measured iterations to the attempted/failed counts.
func (r *result) tally(samples []sample, check func(sample) bool) {
	if r.Attempted == 0 {
		r.Correct = true
	}
	for _, s := range samples {
		r.Attempted++
		if !check(s) {
			r.Failed++
			r.Correct = false
		}
	}
}

// quartiles returns the 25th, 50th and 75th percentiles of xs by linear
// interpolation.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		x := p * float64(len(s)-1)
		i := int(math.Floor(x))
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func median(samples []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return quartiles(xs)[1]
}

// endToEnd computes the user-visible metrics over untraced iterations:
// medians per iteration, plus the process's peak resident set.
func endToEnd(samples []sample, m map[string]metric) error {
	wall := func(s sample) float64 { return s.wall().Seconds() }
	m["setup_s"] = metric{median(samples, func(s sample) float64 { return s.setup.Seconds() }), "s"}
	m["wall_s"] = metric{median(samples, wall), "s"}
	m["cpu_s"] = metric{median(samples, func(s sample) float64 { return s.cpu.Seconds() }), "s"}
	m["events_per_s"] = metric{median(samples, func(s sample) float64 { return float64(s.events) / wall(s) }), "1/s"}
	m["vsec_per_wall_s"] = metric{median(samples, func(s sample) float64 { return s.virtual / wall(s) }), "s/s"}
	m["alloc_mb"] = metric{median(samples, func(s sample) float64 { return float64(s.allocBytes) / 1e6 }), "MB"}
	rss, err := peakRSS()
	m["peak_rss_mb"] = metric{rss / 1e6, "MB"}
	return err
}

// perLayer measures untraced iterations for half the budget (the
// baseline of the tracing overhead), then traced iterations under a CPU
// profile for the other half, and reports the per-layer metrics.
func perLayer(w scenario, seed int64, budget time.Duration, check func(sample) bool, res *result) error {
	made := decoratorsMade.Load()
	base, err := loop(w, seed, false, budget/2)
	if err != nil {
		return err
	}
	if decoratorsMade.Load() != made {
		return fmt.Errorf("the untraced run attached a decorator")
	}
	traffic, err := countTraffic(w, seed)
	if err != nil {
		return err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	traced, err := loop(w, seed, true, budget/2)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	res.tally(base, check)
	res.tally([]sample{traffic}, check)
	res.tally(traced, check)
	p, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return err
	}
	a := attribute(p)
	m := res.Metrics
	n := float64(len(traced))
	for _, l := range layerNames {
		share := 0.0
		if a.totalNS > 0 {
			share = float64(a.selfNS[l]) / float64(a.totalNS)
		}
		m[l+".self_s"] = metric{float64(a.selfNS[l]) / 1e9 / n, "s"}
		m[l+".share"] = metric{share, "ratio"}
		fmt.Fprintf(os.Stderr, "layer %-12s %6.1f%%  %s\n", l, 100*share, strings.Join(a.topLeaves(l, 3), "; "))
	}
	m["layers.total_s"] = metric{float64(a.totalNS) / 1e9 / n, "s"}

	span := func(name string, f func(sample) time.Duration) {
		m[name] = metric{median(traced, func(s sample) float64 { return f(s).Seconds() }), "s"}
	}
	span("span.world_new_s", func(s sample) time.Duration { return s.worldNew })
	span("span.populate_s", func(s sample) time.Duration { return s.setup - s.worldNew })
	span("span.run_s", func(s sample) time.Duration { return s.run })
	span("span.finish_s", func(s sample) time.Duration { return s.finish })
	span("span.shutdown_s", func(s sample) time.Duration { return s.shutdown })

	baseWall := median(base, func(s sample) float64 { return s.wall().Seconds() })
	tracedWall := median(traced, func(s sample) float64 { return s.wall().Seconds() })
	m["tracing.overhead_s"] = metric{tracedWall - baseWall, "s"}
	m["tracing.overhead_share"] = metric{(tracedWall - baseWall) / baseWall, "ratio"}

	// Exact counts are identical in every iteration (the output check
	// holds them to it); report the last traced one's.
	last := traced[len(traced)-1]
	count := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	count("eventq.events", float64(last.events), "count")
	count("sim.worlds", float64(last.worlds), "count")
	count("sim.threads", float64(last.dec.threads), "count")
	count("sim.virtual_s", last.virtual, "s")
	count("sched.decisions", float64(last.dec.decisions), "count")
	count("workload.offered", float64(last.out.offered), "count")
	count("workload.completed", float64(last.out.completed), "count")

	ps := traffic.out.profile
	count("sim.switches", float64(ps.Switches), "count")
	count("sim.preemptions", float64(ps.Preemptions), "count")
	count("monitor.enters", float64(ps.MonitorEnters), "count")
	count("monitor.contended_enters", float64(ps.ContendedEnters), "count")
	count("monitor.cv_waits", float64(ps.CVWaits), "count")
	count("monitor.cv_timeouts", float64(ps.CVTimeouts), "count")

	var admitted, rejected, retries, denied, hedges, wins, timeoutsC, goodput int64
	if cs := last.out.cluster; cs != nil {
		admitted, rejected, goodput = cs.Admitted, cs.Rejected, cs.Goodput
		if r := cs.Resilience; r != nil {
			retries, denied, hedges, wins, timeoutsC = r.Retries, r.RetriesDenied, r.Hedges, r.HedgeWins, r.Timeouts
		}
	}
	count("cluster.admitted", float64(admitted), "count")
	count("cluster.rejected", float64(rejected), "count")
	count("cluster.retries", float64(retries), "count")
	count("cluster.retries_denied", float64(denied), "count")
	count("cluster.hedges", float64(hedges), "count")
	count("cluster.hedge_wins", float64(wins), "count")
	count("cluster.timeouts", float64(timeoutsC), "count")
	ratio := 0.0
	if work := admitted + retries + hedges; work > 0 {
		ratio = float64(goodput) / float64(work)
	}
	count("cluster.goodput_ratio", ratio, "ratio")

	perIter := func(f func(sample) float64) float64 { return median(traced, f) }
	count("sink.records", perIter(func(s sample) float64 { return float64(s.dec.records) }), "count")
	count("sink.record_s", perIter(func(s sample) float64 { return float64(s.dec.recordNS) / 1e9 }), "s")
	count("sched.calls", perIter(func(s sample) float64 { return float64(s.dec.calls) }), "count")
	count("sched.call_s", perIter(func(s sample) float64 { return float64(s.dec.callNS) / 1e9 }), "s")

	count("runtime.gc_cycles", perIter(func(s sample) float64 { return float64(s.gcCycles) }), "count")
	count("runtime.gc_pause_s", perIter(func(s sample) float64 { return s.gcPause.Seconds() }), "s")
	count("runtime.alloc_objects", perIter(func(s sample) float64 { return float64(s.allocObjects) }), "count")
	peak := 0
	for _, s := range append(base, traced...) {
		if s.goroutines > peak {
			peak = s.goroutines
		}
	}
	count("runtime.peak_goroutines", float64(peak), "count")
	count("check.failed_share", float64(res.Failed)/float64(res.Attempted), "ratio")
	return nil
}

// countTraffic runs one iteration that is neither timed nor profiled, with
// a profiler on every world's trace stream, and returns it with
// out.profile set to the profiler's summary. Switches, preemptions and
// monitor traffic exist only as trace events, and every workload but
// desktop runs with tracing off, so only such an iteration can count
// them. desktop carries its own profiler, whose summary is used as is.
func countTraffic(w scenario, seed int64) (sample, error) {
	e := &env{seed: seed, probe: &sim.Probe{}, counts: profile.NewSet()}
	s, err := measure(w, e)
	if err != nil {
		return s, err
	}
	if s.out.profile == nil {
		ps := e.counts.Summary()
		s.out.profile = &ps
	}
	return s, nil
}

// printReport writes a header with the warm-up's output (the values an
// expected.json entry records), one human-readable line per metric, then
// the JSON result as the last line of standard output.
func printReport(name string, seed int64, warm sample, r result) {
	fmt.Printf("perfbench %s seed=%d events=%d digest=%s iterations=%d failed=%d (GOMAXPROCS=%d)\n",
		name, seed, warm.events, warm.out.digest, r.Attempted, r.Failed, runtime.GOMAXPROCS(0))
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-28s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

// --- expected outputs -----------------------------------------------------

//go:embed expected.json
var expectedJSON []byte

type expectation struct {
	Events int64  `json:"events"`
	Digest string `json:"digest"`
}

// expectedFor returns the recorded output of a workload at a seed, for
// the seeds expected.json covers.
func expectedFor(workload string, seed int64) (expectation, bool) {
	var all map[string]map[string]expectation
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		panic(fmt.Sprintf("perfbench: expected.json: %v", err))
	}
	e, ok := all[workload][strconv.FormatInt(seed, 10)]
	return e, ok
}

package experiments

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/vclock"
	"repro/internal/workload/capacity"
)

// Metrics is one experiment run's observability record: how long the run
// took on the wall clock, how much virtual time its worlds simulated, and
// how much work the simulator did to get there. The JSON tags name the
// units explicitly so the -json summaries are self-describing and
// comparable across machines.
type Metrics struct {
	ID    string `json:"id"`
	Title string `json:"title"`

	// WallTime is the wall-clock cost of the run (nanoseconds in JSON).
	WallTime time.Duration `json:"wall_ns"`
	// VirtualTime is the total virtual time simulated across every
	// world the experiment created (microseconds in JSON).
	VirtualTime vclock.Duration `json:"virtual_us"`
	// Worlds is the number of simulated worlds the experiment built.
	Worlds int64 `json:"worlds"`
	// Events is the number of discrete events those worlds' drivers
	// processed.
	Events int64 `json:"events"`
	// EventsPerSec is Events divided by wall-clock seconds: the
	// simulator's throughput while reproducing this artifact.
	EventsPerSec float64 `json:"events_per_sec"`
	// VirtualPerWall is virtual seconds simulated per wall-clock
	// second — how much faster than real time the simulation runs.
	VirtualPerWall float64 `json:"virtual_per_wall"`
	// AllocBytes and AllocObjects are heap-allocation deltas observed
	// over the run. They are exact at parallelism 1; with concurrent
	// runs the runtime's global counters intermix experiments, so treat
	// them as approximate there.
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"alloc_objects"`

	// Load is the W-series throughput/latency summary; omitted for the
	// T/F/R series.
	Load *LoadSummary `json:"load,omitempty"`

	// Cluster is the C-series fleet summary list (one entry per sweep
	// point, presentation order); omitted for every other series.
	Cluster []*cluster.Summary `json:"cluster,omitempty"`

	// Sched is the S-series per-policy summary list (one entry per
	// ladder policy, presentation order); omitted for every other series.
	Sched []*SchedSummary `json:"sched,omitempty"`

	// Capacity is the K-series saturation-knee record list (one entry
	// per configuration, presentation order); omitted for every other
	// series.
	Capacity []*capacity.Result `json:"capacity,omitempty"`
}

// Outcome couples an experiment's report with its run metrics and, in
// verify mode, the determinism verdict.
type Outcome struct {
	Report  *Report
	Metrics Metrics

	// Verified is true when the runner re-ran the experiment
	// concurrently and compared outputs; Mismatch is true when the two
	// renderings differed (a determinism bug).
	Verified bool
	Mismatch bool

	// Audit holds the §5.3 masked-missing-NOTIFY findings gathered from
	// every monitor the run created (Options.Audit); nil when auditing
	// was off or nothing was suspicious.
	Audit []string
}

// Options configures RunWith.
type Options struct {
	// Parallelism is the worker count; values < 1 select GOMAXPROCS.
	// Results are always emitted in presentation order and are
	// byte-identical regardless of parallelism — every experiment owns
	// its own worlds and registries and shares nothing.
	Parallelism int
	// Verify re-runs each experiment concurrently with itself and
	// diffs the two rendered reports, flagging nondeterminism.
	Verify bool
	// Experiments is the set to run; nil means All().
	Experiments []Experiment
	// OnResult, when non-nil, is invoked once per experiment in
	// presentation order, streaming each outcome as soon as it and all
	// of its predecessors have finished (later experiments may still be
	// running). It is called from RunWith's goroutine.
	OnResult func(Outcome)
	// Audit sweeps every CV the run's monitors created for the §5.3
	// masked-missing-NOTIFY signature after the run finishes and attaches
	// the findings to the outcome. Purely observational: reports are
	// byte-identical with auditing on or off.
	Audit bool
	// AuditMinWaits is the minimum completed-wait count before a CV is
	// suspicious; values < 1 select 10.
	AuditMinWaits int
}

// RunWith executes opts.Experiments on a pool of opts.Parallelism
// workers. Each run gets a fresh sim.Probe (any probe already present in
// cfg is replaced for the run) so the per-experiment counters are exact
// even when runs overlap.
func RunWith(cfg Config, opts Options) []Outcome {
	todo := opts.Experiments
	if todo == nil {
		todo = All()
	}
	workers := opts.Parallelism
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(todo) {
		workers = len(todo)
	}

	outcomes := make([]Outcome, len(todo))
	done := make([]chan struct{}, len(todo))
	for i := range done {
		done[i] = make(chan struct{})
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				outcomes[i] = runOne(todo[i], cfg, opts)
				close(done[i])
			}
		}()
	}
	go func() {
		for i := range todo {
			jobs <- i
		}
		close(jobs)
	}()

	// Emit strictly in presentation order as prefixes complete.
	for i := range todo {
		<-done[i]
		if opts.OnResult != nil {
			opts.OnResult(outcomes[i])
		}
	}
	wg.Wait()
	return outcomes
}

// runOne executes a single experiment with a private probe, measuring
// wall time and allocation deltas around Experiment.Run. In verify mode
// the experiment runs twice concurrently — deliberately racing two
// identical copies so `go test -race` and output diffing together prove
// the experiment shares no hidden mutable state.
func runOne(e Experiment, cfg Config, opts Options) Outcome {
	verify := opts.Verify
	probe := &sim.Probe{}
	runCfg := cfg
	runCfg.Hooks.Probe = probe

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()

	var report, again *Report
	if verify {
		verifyCfg := cfg
		verifyCfg.Hooks.Probe = nil // keep the primary run's counters exact
		var vg sync.WaitGroup
		vg.Add(1)
		go func() {
			defer vg.Done()
			again = e.Run(verifyCfg)
		}()
		report = e.Run(runCfg)
		vg.Wait()
	} else {
		report = e.Run(runCfg)
	}

	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	m := Metrics{
		ID:          e.ID,
		Title:       e.Title,
		WallTime:    wall,
		VirtualTime: probe.VirtualTime(),
		Worlds:      probe.Worlds(),
		Events:      probe.Events(),

		AllocBytes:   after.TotalAlloc - before.TotalAlloc,
		AllocObjects: after.Mallocs - before.Mallocs,
	}
	if secs := wall.Seconds(); secs > 0 {
		m.EventsPerSec = float64(m.Events) / secs
		m.VirtualPerWall = m.VirtualTime.Seconds() / secs
	}
	m.Load = report.Load
	m.Cluster = report.Cluster
	m.Sched = report.Sched
	m.Capacity = report.Capacity
	out := Outcome{Report: report, Metrics: m}
	if verify {
		out.Verified = true
		out.Mismatch = report.String() != again.String()
	}
	if opts.Audit {
		min := opts.AuditMinWaits
		if min < 1 {
			min = 10
		}
		out.Audit = probe.Audit(min)
	}
	return out
}

package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vclock"
	"repro/internal/workload"
	"repro/internal/workload/spec"
)

// The W-series drives the simulator at server scale: open-loop Poisson
// load through thousands of threads, reporting throughput and latency
// percentiles. Where the T/F/R series reproduce the paper's artifacts,
// the W series measures the regime the ROADMAP points at — "heavy traffic
// from millions of users" — on the same scheduler model. The series runs
// only behind threadstudy -wseries (or -experiment W1..W3), keeping the
// default experiment list and its golden stdout untouched.

// LoadSummary is the machine-readable face of a W-series run, attached
// to the experiment's Metrics under "load" in -json output. All
// latencies are virtual microseconds.
type LoadSummary struct {
	Offered          int64   `json:"offered"`
	Completed        int64   `json:"completed"`
	Threads          int     `json:"threads"`
	WindowUS         int64   `json:"window_us"`
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	P50US            int64   `json:"p50_us"`
	P95US            int64   `json:"p95_us"`
	P99US            int64   `json:"p99_us"`
	MaxUS            int64   `json:"max_us"`
}

// summarizeLoad converts workload stats to the JSON form.
func summarizeLoad(s *workload.LoadStats) *LoadSummary {
	return &LoadSummary{
		Offered:          s.Offered,
		Completed:        s.Completed,
		Threads:          s.Threads,
		WindowUS:         int64(s.Window),
		ThroughputPerSec: s.Throughput(),
		P50US:            int64(s.Latency.Percentile(0.5)),
		P95US:            int64(s.Latency.Percentile(0.95)),
		P99US:            int64(s.Latency.Percentile(0.99)),
		MaxUS:            int64(s.Latency.Max()),
	}
}

// loadTable renders one stats row in the W-series' shared table shape.
func loadTable(title string, s *workload.LoadStats) *stats.Table {
	t := stats.NewTable(title,
		"Metric", "Value")
	t.AddRowf("%s", "threads", "%d", s.Threads)
	t.AddRowf("%s", "requests offered", "%d", s.Offered)
	t.AddRowf("%s", "requests completed", "%d", s.Completed)
	t.AddRowf("%s", "measurement window", "%s", s.Window)
	t.AddRowf("%s", "throughput", "%.0f req/s", s.Throughput())
	t.AddRowf("%s", "latency p50", "%s", s.Latency.Percentile(0.5))
	t.AddRowf("%s", "latency p95", "%s", s.Latency.Percentile(0.95))
	t.AddRowf("%s", "latency p99", "%s", s.Latency.Percentile(0.99))
	t.AddRowf("%s", "latency max", "%s", s.Latency.Max())
	return t
}

// shippedSpec loads a shipped W-series spec, scaled to the run mode by
// the mutator. The experiments consume the embedded JSON through the
// same StartSpec path any user-supplied spec takes; TestTraceDigests
// (internal/sim) pins their quick-scale traces and stats.
func shippedSpec(name string, quick bool, scale func(*spec.Spec)) *spec.Spec {
	sp := spec.MustShipped(name)
	if quick && scale != nil {
		scale(sp)
	}
	return sp
}

// startSpec compiles sp into a fresh world built from cfg. Shipped specs
// always compile; an error here is a bug, not an input problem.
func startSpec(cfg Config, sp *spec.Spec) (*sim.World, *workload.SpecRun) {
	w := sim.NewWorld(sim.Config{Seed: cfg.seed(), SystemDaemon: sp.SystemDaemon, Hooks: cfg.hooks()})
	run, err := workload.StartSpec(w, sp, workload.SpecOptions{})
	if err != nil {
		w.Shutdown()
		panic(err)
	}
	return w, run
}

// LoadEcho (W1) is the multi-user echo server: one session thread per
// user, Poisson arrivals fanned uniformly across the population. The
// full-scale population is the acceptance point (ten thousand threads,
// one hundred thousand requests); quick mode keeps the shape at a tenth
// the size.
func LoadEcho(cfg Config) *Report {
	sp := shippedSpec("w1", cfg.Quick, func(sp *spec.Spec) {
		sp.Cohorts[0].Sessions = 1000
		sp.Cohorts[0].Requests = 10_000
	})
	w, run := startSpec(cfg, sp)
	defer w.Shutdown()
	// The horizon is generous: injection alone needs Requests/Rate, and
	// the world quiesces (every session exits) well before 4x that.
	outcome := w.Run(vclock.Time(0).Add(run.Horizon))
	s := run.Load()

	c := &sp.Cohorts[0]
	rep := &Report{ID: "W1", Title: "Open-loop echo server under Poisson load",
		Tables: []*stats.Table{loadTable(
			fmt.Sprintf("Echo server: %d sessions, %.0f req/s offered, %s service",
				c.Sessions, c.Arrival.Rate, c.ServiceMean()), s)},
		Notes: []string{
			fmt.Sprintf("open-loop: arrivals keep their own schedule, so the percentiles include queueing delay; run ended %v", outcome),
			"one thread per user at a uniform priority — the paper's systems held hundreds of threads (§3);",
			"this population is two orders of magnitude past that on the same scheduler model.",
		},
		Load: summarizeLoad(s)}
	return rep
}

// LoadPipeline (W2) is the slack-process pipeline under load: stage
// chains at descending priority joined by monitor-based bounded buffers.
func LoadPipeline(cfg Config) *Report {
	sp := shippedSpec("w2", cfg.Quick, func(sp *spec.Spec) {
		sp.Pipeline.Pipelines = 16
		sp.Pipeline.Requests = 5000
	})
	w, run := startSpec(cfg, sp)
	defer w.Shutdown()
	outcome := w.Run(vclock.Time(0).Add(run.Horizon))
	s := run.Load()

	p := sp.Pipeline
	return &Report{ID: "W2", Title: "Slack-process pipelines under open-loop load (§5.2)",
		Tables: []*stats.Table{loadTable(
			fmt.Sprintf("Pipelines: %d chains x %d stages, buffer %d, %.0f req/s offered",
				p.Pipelines, p.Stages, p.Buffer, p.Rate), s)},
		Notes: []string{
			fmt.Sprintf("stages run at descending priority, so downstream stages batch like the §5.2 slack process; run ended %v", outcome),
			"each hop crosses a monitor-based bounded buffer — the latency percentiles price the paper's",
			"serializer paradigm (§4.2) under sustained load rather than single keystrokes.",
		},
		Load: summarizeLoad(s)}
}

// LoadMixed (W3) is the §6.2 priority mix under load: high-priority
// interactive echo sessions over an always-ready background batch pool.
func LoadMixed(cfg Config) *Report {
	sp := shippedSpec("w3", cfg.Quick, func(sp *spec.Spec) {
		sp.Cohorts[0].Sessions = 64
		sp.Cohorts[0].Requests = 8000
		sp.Batch.Workers = 16
		sp.HorizonUS = (10 * vclock.Second).Micros()
	})
	w, run := startSpec(cfg, sp)
	defer w.Shutdown()
	outcome := w.Run(vclock.Time(0).Add(run.Horizon))
	chunks := run.Batch.Chunks
	s := run.Load()

	c := &sp.Cohorts[0]
	t := loadTable(fmt.Sprintf("Interactive: %d sessions at %.0f req/s over %d batch threads",
		c.Sessions, c.Arrival.Rate, sp.Batch.Workers), s)
	t.AddRowf("%s", "batch chunks completed", "%d", chunks)
	t.AddRowf("%s", "batch throughput", "%.0f chunks/s", float64(chunks)/run.Horizon.Seconds())
	return &Report{ID: "W3", Title: "Mixed interactive and batch priorities under load (§6.2)",
		Tables: []*stats.Table{t},
		Notes: []string{
			fmt.Sprintf("strict priorities protect the interactive percentiles while the batch pool soaks every idle cycle; run ended %v", outcome),
			"the SystemDaemon is on, donating timeslices so the background pool is never starved outright (§6.2).",
		},
		Load: summarizeLoad(s)}
}

// WSeries returns the open-loop load experiments, in presentation order.
// They are not part of All(): the W series runs only on explicit request
// (threadstudy -wseries or -experiment W1..W3), so the default output and
// its goldens are untouched by load-workload evolution.
func WSeries() []Experiment {
	return []Experiment{
		{"W1", "Open-loop echo server under Poisson load", LoadEcho},
		{"W2", "Slack-process pipelines under open-loop load (§5.2)", LoadPipeline},
		{"W3", "Mixed interactive and batch priorities under load (§6.2)", LoadMixed},
	}
}

// Package repro's benchmark harness regenerates every table and figure of
// "Using Threads in Interactive Systems: A Case Study" (one benchmark per
// artifact; see DESIGN.md §3 for the experiment index) and measures the
// simulator's own throughput. Run:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTableN/BenchmarkFigX iteration performs one full
// regeneration at the quick (10 s virtual window) setting; the reported
// ns/op is the wall-clock cost of reproducing that artifact.
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/paradigm"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/workload"
	"repro/internal/xwin"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := e.Run(experiments.Config{Quick: true, Seed: 1})
		if len(r.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

// The paper's four tables.

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "T1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "T2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "T3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "T4") }

// The paper's prose-reported results ("figures" F1-F8; DESIGN.md §3).

func BenchmarkFigExecIntervals(b *testing.B) { benchExperiment(b, "F1") }
func BenchmarkFigPriorities(b *testing.B)    { benchExperiment(b, "F2") }
func BenchmarkFigSlack(b *testing.B)         { benchExperiment(b, "F3") }
func BenchmarkFigQuantum(b *testing.B)       { benchExperiment(b, "F4") }
func BenchmarkFigSpurious(b *testing.B)      { benchExperiment(b, "F5") }
func BenchmarkFigInversion(b *testing.B)     { benchExperiment(b, "F6") }
func BenchmarkFigXlib(b *testing.B)          { benchExperiment(b, "F7") }
func BenchmarkFigMistakes(b *testing.B)      { benchExperiment(b, "F8") }

// The two §7 future-work investigations the paper called for.

func BenchmarkFigInheritance(b *testing.B) { benchExperiment(b, "F9") }
func BenchmarkFigAdaptive(b *testing.B)    { benchExperiment(b, "F10") }

// Individual Table 1-3 rows, for quick per-benchmark iteration: e.g.
//
//	go test -bench='BenchmarkWorkload/Cedar/Keyboard'
func BenchmarkWorkload(b *testing.B) {
	rc := workload.DefaultRunConfig()
	rc.Window = 10 * vclock.Second
	for _, bench := range workload.AllBenchmarks() {
		bench := bench
		b.Run(bench.System+"/"+bench.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := workload.Run(bench, rc)
				if r.Analysis.MLEnters == 0 {
					b.Fatal("benchmark produced no monitor traffic")
				}
			}
		})
	}
}

// BenchmarkBuildDesktop measures what it costs to set up the twelve
// Table 1-3 worlds before any of them runs: each with a probe, the
// SystemDaemon, a stats.Collector trace and a profiler attached through
// OnWorld, the way the desktop host-cost benchmark (perfbench) builds
// them. Its allocs/op and B/op are the setup memory that benchmark's
// alloc_mb and peak_rss_mb include.
func BenchmarkBuildDesktop(b *testing.B) {
	benches := workload.AllBenchmarks()
	end := vclock.Time(0).Add(13 * vclock.Second)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		set := profile.NewSet()
		hooks := sim.Hooks{Probe: &sim.Probe{}, OnWorld: set.Attach}
		worlds := make([]*sim.World, 0, len(benches))
		for _, bench := range benches {
			w := sim.NewWorld(sim.Config{
				Trace:        stats.NewCollector(vclock.Time(0).Add(3*vclock.Second), end),
				Seed:         1,
				CPUs:         1,
				Hooks:        hooks,
				SystemDaemon: true,
			})
			bench.Build(w, paradigm.NewRegistry())
			worlds = append(worlds, w)
		}
		for _, w := range worlds {
			w.Shutdown()
		}
	}
}

// Ablations of the §5.2 pipeline: what each design ingredient buys.
func BenchmarkSlackAblation(b *testing.B) {
	cases := []struct {
		name     string
		strategy paradigm.WaitStrategy
		quantum  vclock.Duration
	}{
		{"NoSlack", paradigm.SlackNone, 50 * vclock.Millisecond},
		{"PlainYield", paradigm.SlackYield, 50 * vclock.Millisecond},
		{"YieldButNotToMe", paradigm.SlackYieldButNotToMe, 50 * vclock.Millisecond},
		{"YieldButNotToMe-1msQuantum", paradigm.SlackYieldButNotToMe, vclock.Millisecond},
		{"YieldButNotToMe-1sQuantum", paradigm.SlackYieldButNotToMe, vclock.Second},
		{"Sleep", paradigm.SlackSleep, 50 * vclock.Millisecond},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var produced int
			for i := 0; i < b.N; i++ {
				cfg := xwin.DefaultPipelineConfig()
				cfg.Strategy = c.strategy
				r := xwin.RunPipeline(cfg, c.quantum, 1, 5*vclock.Second)
				produced = r.Produced
			}
			b.ReportMetric(float64(produced)/5, "painted/vsec")
		})
	}
}

// Simulator micro-benchmarks: the cost of the discrete-event kernel
// itself, in wall-clock terms.

// BenchmarkSimContextSwitch measures one full block/wake/switch cycle
// between two threads.
func BenchmarkSimContextSwitch(b *testing.B) {
	w := sim.NewWorld(sim.Config{SwitchCost: -1, TimeoutGranularity: 1})
	defer w.Shutdown()
	m := monitor.NewWithOptions(w, "mu", monitor.Options{LockCost: -1, NotifyCost: -1, WaitCost: -1})
	cv := m.NewCond("cv")
	stop := false
	for _, name := range []string{"ping", "pong"} {
		w.Spawn(name, sim.PriorityNormal, func(t *sim.Thread) any {
			m.Enter(t)
			for !stop {
				cv.Notify(t)
				cv.Wait(t)
				// Advance virtual time so each Run horizon terminates
				// (a zero-cost ping-pong would spin forever inside one
				// virtual instant).
				m.Exit(t)
				t.Compute(vclock.Microsecond)
				m.Enter(t)
			}
			cv.Notify(t)
			m.Exit(t)
			return nil
		})
	}
	horizon := vclock.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// ~one notify/wait/switch round trip per iteration (each cycle
		// consumes 2µs of virtual time across the two threads).
		horizon = horizon.Add(2 * vclock.Microsecond)
		w.Run(horizon)
	}
	b.StopTimer()
	stop = true
}

// BenchmarkSimForkJoin measures creating, scheduling, completing and
// joining one thread.
func BenchmarkSimForkJoin(b *testing.B) {
	w := sim.NewWorld(sim.Config{SwitchCost: -1, TimeoutGranularity: 1})
	defer w.Shutdown()
	done := make(chan struct{})
	n := b.N
	b.ResetTimer()
	w.Spawn("parent", sim.PriorityNormal, func(t *sim.Thread) any {
		for i := 0; i < n; i++ {
			c := t.Fork("child", func(c *sim.Thread) any { return nil })
			t.Join(c)
		}
		close(done)
		return nil
	})
	w.Run(vclock.Never - 1)
	<-done
}

// BenchmarkSimMonitorEnterExit measures an uncontended monitor section.
func BenchmarkSimMonitorEnterExit(b *testing.B) {
	w := sim.NewWorld(sim.Config{SwitchCost: -1, TimeoutGranularity: 1})
	defer w.Shutdown()
	m := monitor.NewWithOptions(w, "mu", monitor.Options{LockCost: -1, NotifyCost: -1, WaitCost: -1})
	n := b.N
	b.ResetTimer()
	w.Spawn("worker", sim.PriorityNormal, func(t *sim.Thread) any {
		for i := 0; i < n; i++ {
			m.Enter(t)
			m.Exit(t)
		}
		return nil
	})
	w.Run(vclock.Never - 1)
}

// BenchmarkSimEventThroughput measures raw timer-event processing.
func BenchmarkSimEventThroughput(b *testing.B) {
	w := sim.NewWorld(sim.Config{SwitchCost: -1, TimeoutGranularity: 1})
	defer w.Shutdown()
	n := b.N
	fired := 0
	b.ResetTimer()
	var tick func()
	tick = func() {
		fired++
		if fired < n {
			w.After(vclock.Microsecond, tick)
		}
	}
	w.After(vclock.Microsecond, tick)
	w.Run(vclock.Never - 1)
	if fired != n {
		b.Fatalf("fired %d of %d", fired, n)
	}
}

func BenchmarkFigMultiprocessor(b *testing.B) { benchExperiment(b, "F11") }

// Ablation: the §6.2 inversion under each remedy. The reported metric is
// the high-priority thread's acquisition delay in virtual milliseconds.
func BenchmarkInversionAblation(b *testing.B) {
	cases := []struct {
		name                string
		daemon, inheritance bool
	}{
		{"None", false, false},
		{"SystemDaemon", true, false},
		{"Inheritance", false, true},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var delay vclock.Duration
			for i := 0; i < b.N; i++ {
				w := sim.NewWorld(sim.Config{Seed: 9, SystemDaemon: c.daemon})
				m := monitor.NewWithOptions(w, "mu", monitor.Options{PriorityInheritance: c.inheritance})
				var acquired vclock.Time
				w.Spawn("lo", sim.PriorityLow, func(t *sim.Thread) any {
					m.Enter(t)
					t.Compute(20 * vclock.Millisecond)
					m.Exit(t)
					return nil
				})
				start := vclock.Time(vclock.Millisecond)
				w.At(start, func() {
					w.Spawn("hog", sim.PriorityNormal, func(t *sim.Thread) any {
						for {
							t.Compute(10 * vclock.Millisecond)
						}
					})
					w.Spawn("hi", sim.PriorityHigh, func(t *sim.Thread) any {
						m.Enter(t)
						acquired = t.Now()
						m.Exit(t)
						w.Stop()
						return nil
					})
				})
				w.Run(vclock.Time(10 * vclock.Second))
				if acquired == 0 {
					delay = 10 * vclock.Second
				} else {
					delay = acquired.Sub(start)
				}
				w.Shutdown()
			}
			b.ReportMetric(delay.Millis(), "vms-to-acquire")
		})
	}
}

// Ablation: the §6.1 NOTIFY fix's effect on wasted scheduler work.
func BenchmarkNotifyFixAblation(b *testing.B) {
	for _, deferFix := range []bool{false, true} {
		deferFix := deferFix
		name := "WakeAtNotify"
		if deferFix {
			name = "DeferToExit"
		}
		b.Run(name, func(b *testing.B) {
			var switches int
			for i := 0; i < b.N; i++ {
				var buf trace.Buffer
				w := sim.NewWorld(sim.Config{Trace: &buf, Seed: 1})
				m := monitor.NewWithOptions(w, "mu", monitor.Options{DeferNotifyReschedule: deferFix})
				cv := m.NewCond("cv")
				items := 0
				w.Spawn("hi", sim.PriorityHigh, func(t *sim.Thread) any {
					for n := 0; n < 200; n++ {
						m.Enter(t)
						for items == 0 {
							cv.Wait(t)
						}
						items--
						m.Exit(t)
					}
					w.Stop()
					return nil
				})
				w.Spawn("lo", sim.PriorityLow, func(t *sim.Thread) any {
					for {
						t.Compute(200 * vclock.Microsecond)
						m.Enter(t)
						items++
						cv.Notify(t)
						t.Compute(100 * vclock.Microsecond)
						m.Exit(t)
					}
				})
				w.Run(vclock.Time(vclock.Minute))
				switches = 0
				for _, ev := range buf.Events {
					if ev.Kind == trace.KindSwitch && ev.Thread != trace.NoThread {
						switches++
					}
				}
				w.Shutdown()
			}
			b.ReportMetric(float64(switches), "switches/200-notifies")
		})
	}
}

func BenchmarkFigEchoLatency(b *testing.B) { benchExperiment(b, "F12") }

// The parallel experiment harness: one full regeneration of every
// registered artifact per iteration, under increasing worker-pool sizes. The
// parallel=1 row is the old serial harness; the speedup of the larger
// rows is the harness's whole point (the experiments share nothing, so
// the sweep should scale until it runs out of cores).
func BenchmarkRunAll(b *testing.B) {
	widths := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		widths = append(widths, p)
	}
	for _, par := range widths {
		par := par
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				outs := experiments.RunAll(experiments.Config{Quick: true, Seed: 1}, par)
				if want := len(experiments.All()); len(outs) != want {
					b.Fatalf("got %d outcomes, want %d", len(outs), want)
				}
				var events int64
				for _, o := range outs {
					events += o.Metrics.Events
				}
				if events == 0 {
					b.Fatal("harness observed no simulator events")
				}
			}
		})
	}
}

// BenchmarkRunAllVerify measures the -verify mode: every experiment run
// twice, concurrently with itself, plus the output diff.
func BenchmarkRunAllVerify(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		outs := experiments.RunWith(experiments.Config{Quick: true, Seed: 1},
			experiments.Options{Verify: true})
		for _, o := range outs {
			if o.Mismatch {
				b.Fatalf("%s nondeterministic", o.Report.ID)
			}
		}
	}
}

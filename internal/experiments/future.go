package experiments

import (
	"fmt"

	"repro/internal/monitor"
	"repro/internal/paradigm"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// The paper's §7 closes with two research suggestions. These experiments
// carry them out on the reproduced substrate:
//
//   - F9 investigates priority inheritance — the technique PCR declined
//     to implement — against the SystemDaemon workaround it shipped.
//   - F10 investigates dynamically tuned timeouts — §5.5's answer to the
//     "timeouts and pauses with ridiculous values" the archeology found.

// FigInheritance (F9) measures the stable-inversion scenario of §6.2
// under the three policies: nothing, the SystemDaemon, and direct
// priority inheritance on the monitor.
func FigInheritance(cfg Config) *Report {
	type outcome struct {
		delay   vclock.Duration
		hogWork vclock.Duration // how much the mid-priority hog got done meanwhile
	}
	run := func(daemon, inheritance bool) outcome {
		w := sim.NewWorld(sim.Config{Seed: cfg.seed(), SystemDaemon: daemon, Hooks: cfg.Hooks})
		defer w.Shutdown()
		m := monitor.NewWithOptions(w, "resource", monitor.Options{PriorityInheritance: inheritance})
		var acquired vclock.Time
		var hogDone vclock.Duration
		w.Spawn("lo-holder", sim.PriorityLow, func(t *sim.Thread) any {
			m.Enter(t)
			t.Compute(20 * vclock.Millisecond)
			m.Exit(t)
			return nil
		})
		start := vclock.Time(vclock.Millisecond)
		w.At(start, func() {
			w.Spawn("mid-hog", sim.PriorityNormal, func(t *sim.Thread) any {
				for {
					t.Compute(vclock.Millisecond)
					if acquired == 0 {
						hogDone += vclock.Millisecond
					}
				}
			})
			w.Spawn("hi-waiter", sim.PriorityHigh, func(t *sim.Thread) any {
				m.Enter(t)
				acquired = t.Now()
				m.Exit(t)
				w.Stop()
				return nil
			})
		})
		w.Run(vclock.Time(vclock.Minute))
		if acquired == 0 {
			return outcome{delay: vclock.Minute, hogWork: hogDone}
		}
		return outcome{delay: acquired.Sub(start), hogWork: hogDone}
	}

	none := run(false, false)
	daemon := run(true, false)
	inherit := run(false, true)

	t := stats.NewTable("Priority inheritance vs PCR's workarounds (stable inversion, 20ms critical section)",
		"Policy", "hi-priority acquisition delay", "hog CPU during inversion")
	t.AddRowf("%s", "strict priority (none)", "%s", none.delay.String(), "%s", none.hogWork.String())
	t.AddRowf("%s", "SystemDaemon random donation (PCR)", "%s", daemon.delay.String(), "%s", daemon.hogWork.String())
	t.AddRowf("%s", "priority inheritance (future work)", "%s", inherit.delay.String(), "%s", inherit.hogWork.String())
	return &Report{ID: "F9", Title: "Priority inheritance for interactive systems (§7 future work)",
		Tables: []*stats.Table{t},
		Notes: []string{
			"inheritance bounds the inversion by the critical-section length (~20ms) and is deterministic;",
			"the SystemDaemon bounds it only probabilistically (its delay varies with the seed) and violates",
			"strict priority for everyone, which is exactly the paper's complaint: 'the thread model is",
			"incompletely specified with respect to priorities'. Inheritance here is direct (one level) —",
			"the paper's caveat stands: CV-based 'abstract resources' cannot be inherited automatically.",
		}}
}

// FigAdaptive (F10) measures fixed vs dynamically tuned client timeouts
// when the environment changes under the program — §5.5's scenario of
// values "chosen with some particular now-obsolete processor speed or
// network architecture in mind".
func FigAdaptive(cfg Config) *Report {
	const requests = 60
	run := func(adaptive bool, serverDelay vclock.Duration) (spurious int, mean vclock.Duration) {
		w := sim.NewWorld(sim.Config{Seed: cfg.seed(), TimeoutGranularity: vclock.Millisecond, Hooks: cfg.Hooks})
		defer w.Shutdown()
		m := monitor.New(w, "rpc")
		reqCV := m.NewCond("request")
		respCV := m.NewCondTimeout("response", 10*vclock.Millisecond)
		var reqPending, respReady bool

		w.Spawn("server", sim.PriorityNormal, func(t *sim.Thread) any {
			for {
				m.Enter(t)
				for !reqPending {
					reqCV.Wait(t)
				}
				reqPending = false
				m.Exit(t)
				t.BlockIO(serverDelay) // the "network" round trip
				m.Enter(t)
				respReady = true
				respCV.Notify(t)
				m.Exit(t)
			}
		})

		est := paradigm.NewAdaptiveTimeout(10 * vclock.Millisecond)
		var total vclock.Duration
		w.Spawn("client", sim.PriorityNormal, func(t *sim.Thread) any {
			for i := 0; i < requests; i++ {
				start := t.Now()
				m.Enter(t)
				reqPending = true
				reqCV.Notify(t)
				for !respReady {
					if adaptive {
						respCV.SetTimeout(est.Next())
					}
					if respCV.Wait(t) {
						// Timed out before the response: the §5.5 bug in
						// action (a retry storm in a real RPC system).
						spurious++
						if adaptive {
							est.ObserveTimeout()
						}
					}
				}
				respReady = false
				m.Exit(t)
				lat := t.Now().Sub(start)
				total += lat
				if adaptive {
					est.Observe(lat)
				}
				t.Compute(500 * vclock.Microsecond)
			}
			w.Stop()
			return nil
		})
		w.Run(vclock.Time(vclock.Minute))
		return spurious, total / requests
	}

	t := stats.NewTable(fmt.Sprintf("Fixed 10ms timeout vs adaptive timeout, %d requests", requests),
		"Strategy", "server at 4ms", "spurious TOs", "server at 120ms", "spurious TOs")
	fFastTO, fFast := run(false, 4*vclock.Millisecond)
	fSlowTO, fSlow := run(false, 120*vclock.Millisecond)
	aFastTO, aFast := run(true, 4*vclock.Millisecond)
	aSlowTO, aSlow := run(true, 120*vclock.Millisecond)
	t.AddRowf("%s", "fixed 10ms (tuned for the old, fast era)",
		"%s", fFast.String(), "%d", fFastTO, "%s", fSlow.String(), "%d", fSlowTO)
	t.AddRowf("%s", "adaptive (EWMA x2 margin, backoff on TO)",
		"%s", aFast.String(), "%d", aFastTO, "%s", aSlow.String(), "%d", aSlowTO)
	return &Report{ID: "F10", Title: "Dynamically tuned timeouts (§5.5 future work)",
		Tables: []*stats.Table{t},
		Notes: []string{
			"when the environment slows 30x under it, the fixed timeout fires spuriously ~12 times per request",
			"forever; the adaptive estimator pays a handful of timeouts while it learns, then none. Completion",
			"latency is the same either way because the NOTIFY still arrives — the waste is pure overhead,",
			"which is why §5.3 warns that timeout-driven systems 'apparently work correctly but slowly'.",
		}}
}

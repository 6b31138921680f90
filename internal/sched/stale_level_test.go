package sched

import (
	"reflect"
	"testing"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// pcrWrapper answers exactly as pcr-rr but is not the PCRPolicy value,
// so nothing in the dispatcher can recognize it by identity.
type pcrWrapper struct{ Policy }

// TestPriorityChangeOfRunningThread: a priority change to a thread that
// is on a CPU must take effect at once under every policy that levels by
// priority. pcr-rr in every form (no policy, the singleton, a wrapper)
// must give the nil-policy schedule, and so must hybrid, whose
// class-less threads compete at their own priority.
func TestPriorityChangeOfRunningThread(t *testing.T) {
	policies := []struct {
		name   string
		policy func() Policy
	}{
		{"nil", func() Policy { return nil }},
		{"pcr-rr", func() Policy { return sim.PCRPolicy }},
		{"pcr-rr-wrapper", func() Policy { return pcrWrapper{sim.PCRPolicy} }},
		{"hybrid", func() Policy { return MustParse("hybrid") }},
	}
	scripts := []struct {
		name string
		cpus int
		run  func(w *sim.World, log func(string))
		want []string
	}{
		{
			// A running thread demotes itself below a queued peer: the
			// peer must run before the demoted thread continues.
			name: "self-demotion",
			cpus: 1,
			run: func(w *sim.World, log func(string)) {
				w.Spawn("demoter", sim.PriorityHigh, func(th *sim.Thread) any {
					th.Compute(vclock.Millisecond)
					th.SetPriority(sim.PriorityLow)
					log("demoted")
					return nil
				})
				w.Spawn("other", sim.PriorityNormal, func(th *sim.Thread) any {
					th.Compute(vclock.Millisecond)
					log("other")
					return nil
				})
			},
			want: []string{"other", "demoted"},
		},
		{
			// On two CPUs, high blocks on the monitor that low holds while
			// low runs, raising low to High. A Normal thread that wakes
			// while filler occupies the other CPU must not preempt the
			// raised holder: it runs only once low has left the monitor
			// (and dropped back to Low).
			name: "inheritance-raises-running-holder",
			cpus: 2,
			run: func(w *sim.World, log func(string)) {
				m := monitor.NewWithOptions(w, "resource", monitor.Options{
					LockCost: -1, NotifyCost: -1, WaitCost: -1, PriorityInheritance: true,
				})
				w.Spawn("high", sim.PriorityHigh, func(th *sim.Thread) any {
					th.Compute(vclock.Millisecond)
					m.Enter(th)
					log("high-in")
					m.Exit(th)
					return nil
				})
				w.Spawn("filler", sim.PriorityNormal, func(th *sim.Thread) any {
					th.Sleep(2 * vclock.Millisecond)
					th.Compute(20 * vclock.Millisecond)
					log("filler-done")
					return nil
				})
				w.Spawn("middle", sim.PriorityNormal, func(th *sim.Thread) any {
					th.Sleep(3 * vclock.Millisecond)
					log("middle-run")
					th.Compute(vclock.Millisecond)
					return nil
				})
				w.Spawn("low", sim.PriorityLow, func(th *sim.Thread) any {
					m.Enter(th)
					th.Compute(10 * vclock.Millisecond)
					log("low-done")
					m.Exit(th)
					return nil
				})
			},
			want: []string{"low-done", "high-in", "middle-run", "filler-done"},
		},
	}
	for _, sc := range scripts {
		for _, pol := range policies {
			t.Run(sc.name+"/"+pol.name, func(t *testing.T) {
				cfg := sim.Config{CPUs: sc.cpus, SwitchCost: -1, TimeoutGranularity: 1}
				cfg.Hooks.Policy = pol.policy()
				w := sim.NewWorld(cfg)
				defer w.Shutdown()
				var order []string
				sc.run(w, func(s string) { order = append(order, s) })
				if out := w.Run(vclock.Time(vclock.Second)); out != sim.OutcomeQuiescent {
					t.Fatalf("outcome = %v, want quiescent", out)
				}
				if !reflect.DeepEqual(order, sc.want) {
					t.Errorf("order = %v, want %v", order, sc.want)
				}
			})
		}
	}
}

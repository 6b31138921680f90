package monitor

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/vclock"
)

// TestAuditFlagsMaskedMissingNotify builds the §5.3 bug — a consumer kept
// alive only by its CV timeout — and checks the audit finds exactly that
// CV and not the healthy one next to it.
func TestAuditFlagsMaskedMissingNotify(t *testing.T) {
	w := testWorld(t, cfgFast())
	m := NewWithOptions(w, "queues", fastOptions())
	buggy := m.NewCondTimeout("buggy", 10*vclock.Millisecond)
	healthy := m.NewCondTimeout("healthy", 10*vclock.Millisecond)
	var itemsA, itemsB int

	consume := func(cv *Cond, items *int) func(*sim.Thread) any {
		return func(th *sim.Thread) any {
			for got := 0; got < 10; {
				m.Enter(th)
				for *items == 0 {
					cv.Wait(th)
				}
				*items--
				got++
				m.Exit(th)
			}
			return nil
		}
	}
	w.Spawn("consumer-buggy", sim.PriorityNormal, consume(buggy, &itemsA))
	w.Spawn("consumer-healthy", sim.PriorityNormal, consume(healthy, &itemsB))
	w.Spawn("producer", sim.PriorityNormal, func(th *sim.Thread) any {
		for i := 0; i < 10; i++ {
			th.BlockIO(3 * vclock.Millisecond) // blocks: consumers get the CPU
			m.Enter(th)
			itemsA++ // forgot the NOTIFY: buggy's waiters limp on timeouts
			itemsB++
			healthy.Notify(th)
			m.Exit(th)
		}
		return nil
	})
	if out := w.Run(vclock.Time(5 * vclock.Second)); out != sim.OutcomeQuiescent {
		t.Fatalf("outcome = %v", out)
	}

	if !buggy.Suspicious(3) {
		t.Errorf("buggy CV not flagged: %+v", buggy.Stats())
	}
	if healthy.Suspicious(3) {
		t.Errorf("healthy CV wrongly flagged: %+v", healthy.Stats())
	}
	found := AuditCVs(3, m)
	if len(found) != 1 || found[0] != buggy {
		t.Fatalf("audit = %v", found)
	}
	// Counter sanity.
	bs := buggy.Stats()
	if bs.Waits == 0 || bs.Timeouts != bs.Waits || bs.Notifies != 0 {
		t.Errorf("buggy stats = %+v", bs)
	}
	hs := healthy.Stats()
	if hs.Notifies != 10 {
		t.Errorf("healthy notifies = %d, want 10", hs.Notifies)
	}
	if len(m.Conds()) != 2 {
		t.Errorf("Conds = %d", len(m.Conds()))
	}
}

// TestAuditCVsOrdering pins the findings order harnesses rely on for
// stable reports: monitors in argument order, and within a monitor its
// CVs in creation order — never alphabetical or map order.
func TestAuditCVsOrdering(t *testing.T) {
	w := testWorld(t, cfgFast())
	m1 := NewWithOptions(w, "m1", fastOptions())
	m2 := NewWithOptions(w, "m2", fastOptions())
	// Creation order deliberately disagrees with name order.
	zeta := m1.NewCondTimeout("zeta", vclock.Millisecond)
	alpha := m1.NewCondTimeout("alpha", vclock.Millisecond)
	mid := m2.NewCondTimeout("mid", vclock.Millisecond)
	for _, cv := range []*Cond{zeta, alpha, mid} {
		m := m1
		if cv == mid {
			m = m2
		}
		w.Spawn("waiter", sim.PriorityNormal, func(th *sim.Thread) any {
			m.Enter(th)
			cv.Wait(th) // times out; no NOTIFY exists anywhere
			m.Exit(th)
			return nil
		})
	}
	w.Run(vclock.Time(vclock.Second))

	got := AuditCVs(1, m2, m1)
	want := []*Cond{mid, zeta, alpha}
	if len(got) != len(want) {
		t.Fatalf("audit found %d CVs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d is %q, want %q (argument order then creation order)",
				i, got[i].name, want[i].name)
		}
	}
	// Swapping the argument order must swap the findings.
	if rev := AuditCVs(1, m1, m2); rev[0] != zeta || rev[2] != mid {
		t.Errorf("reversed arguments gave %q,%q,%q", rev[0].name, rev[1].name, rev[2].name)
	}
}

func TestAuditMinWaitsGuard(t *testing.T) {
	w := testWorld(t, cfgFast())
	m := NewWithOptions(w, "mu", fastOptions())
	cv := m.NewCondTimeout("cv", vclock.Millisecond)
	w.Spawn("waiter", sim.PriorityNormal, func(th *sim.Thread) any {
		m.Enter(th)
		cv.Wait(th) // a single timed-out wait: below the noise floor
		m.Exit(th)
		return nil
	})
	w.Run(vclock.Time(vclock.Second))
	if cv.Suspicious(3) {
		t.Error("one wait should not trip a minWaits=3 audit")
	}
	if !cv.Suspicious(1) {
		t.Error("minWaits=1 should trip")
	}
}

// TestAuditRegistersWithFirstCV checks that a monitor joins its probe's
// audit sweep when its first CV is created, not when it is built: a world
// of many CV-less monitors (a workload's library) and one all-timeout CV
// reports exactly that CV, and building a CV-less monitor allocates only
// the monitor itself — no audit closure, no registration.
func TestAuditRegistersWithFirstCV(t *testing.T) {
	probe := &sim.Probe{}
	cfg := cfgFast()
	cfg.Hooks.Probe = probe
	w := testWorld(t, cfg)
	for i := 0; i < 200; i++ {
		NewWithOptions(w, "lib", fastOptions())
	}
	m := NewWithOptions(w, "queue", fastOptions())
	cv := m.NewCondTimeout("masked", vclock.Millisecond)
	m.NewCond("second") // a second CV must not register the monitor again
	w.Spawn("waiter", sim.PriorityNormal, func(th *sim.Thread) any {
		m.Enter(th)
		cv.Wait(th) // times out; no NOTIFY exists anywhere
		m.Exit(th)
		return nil
	})
	w.Run(vclock.Time(vclock.Second))

	got := probe.Audit(1)
	want := `monitor "queue" cv "masked": 1 waits, all timed out, 0 notifies (§5.3 masked-missing-NOTIFY signature)`
	if len(got) != 1 || got[0] != want {
		t.Fatalf("Probe.Audit = %q, want exactly [%q]", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { NewWithOptions(w, "lib", fastOptions()) }); n != 1 {
		t.Errorf("building a CV-less monitor in a probed world allocates %v objects, want 1", n)
	}
}

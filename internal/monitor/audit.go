package monitor

import "fmt"

// CVStats are a condition variable's lifetime counters, the raw material
// for the §5.3 audit: "there were cases where timeouts had been
// introduced to compensate for missing NOTIFYs (bugs), instead of fixing
// the underlying problem."
type CVStats struct {
	Waits      int // completed WAIT operations
	Timeouts   int // completed by timeout
	Notifies   int // NOTIFY operations (regardless of waiters woken)
	Broadcasts int
}

// Stats returns the CV's counters.
func (c *Cond) Stats() CVStats { return c.stats }

// Suspicious reports the masked-missing-NOTIFY signature: at least
// minWaits completed waits, every one of them by timeout, and no NOTIFY
// or BROADCAST ever issued. As the paper warns, "legitimate timeouts can
// mask an omitted NOTIFY as well" — a purely periodic sleeper looks the
// same — so this is a lead for a human, not a verdict: the timeout-driven
// system "apparently works correctly but slowly".
func (c *Cond) Suspicious(minWaits int) bool {
	s := c.stats
	return s.Waits >= minWaits &&
		s.Timeouts == s.Waits &&
		s.Notifies == 0 && s.Broadcasts == 0
}

// Conds returns the monitor's condition variables in creation order.
func (m *Monitor) Conds() []*Cond {
	out := make([]*Cond, len(m.conds))
	copy(out, m.conds)
	return out
}

// auditReport renders this monitor's suspicious CVs as human-readable
// findings. A monitor registers it with its world's probe
// (sim.World.RegisterAuditor) when its first CV is created (NewCond), so
// a harness holding the probe can sweep every CV an experiment created —
// threadstudy's -audit flag — without the experiment having to expose
// its monitors. A monitor without CVs has nothing to report and is never
// registered.
func (m *Monitor) auditReport(minWaits int) []string {
	var out []string
	for _, c := range AuditCVs(minWaits, m) {
		s := c.Stats()
		out = append(out, fmt.Sprintf("monitor %q cv %q: %d waits, all timed out, 0 notifies (§5.3 masked-missing-NOTIFY signature)", m.name, c.name, s.Waits))
	}
	return out
}

// AuditCVs scans a set of monitors for suspicious CVs (see
// Cond.Suspicious) and returns them.
func AuditCVs(minWaits int, monitors ...*Monitor) []*Cond {
	var out []*Cond
	for _, m := range monitors {
		for _, c := range m.conds {
			if c.Suspicious(minWaits) {
				out = append(out, c)
			}
		}
	}
	return out
}

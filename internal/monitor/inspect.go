package monitor

import "repro/internal/sim"

// Oracle accessors: read-only snapshots of a monitor's internal queues,
// exposed so schedule-exploration oracles (package explore) can check
// invariants — exclusion, FIFO handoff, deadlock-set soundness — against
// the live structures rather than re-deriving everything from the trace.
// All are driver-context snapshots; none mutate the monitor.

// QueuedEntrants returns the threads blocked waiting for the mutex, in
// handoff (FIFO) order. Hoare signallers parked on the urgent queue are
// not included.
func (m *Monitor) QueuedEntrants() []*sim.Thread {
	out := make([]*sim.Thread, len(m.queue))
	copy(out, m.queue)
	return out
}

package sim

import "repro/internal/vclock"

// spawnSystemDaemon creates the priority-6 sleeper of §6.2: it "regularly
// wakes up and donates, using a directed yield, a small timeslice to
// another thread chosen at random. In this way we ensure that all ready
// threads get some cpu resource, regardless of their priorities." It is
// the workaround PCR shipped for stable priority inversions, at the cost
// of an incompletely specified priority model (§6.2's own complaint).
func (w *World) spawnSystemDaemon() {
	w.Spawn("SystemDaemon", PriorityDaemon, func(t *Thread) any {
		for {
			t.Sleep(w.cfg.SystemDaemonPeriod)
			if victim := w.randomRunnable(); victim != nil {
				t.DirectedYieldFor(victim, w.cfg.SystemDaemonSlice)
			}
		}
	})
}

// randomRunnable picks a uniformly random thread from the run queue, or
// nil if the queue is empty.
func (w *World) randomRunnable() *Thread {
	n := w.runnableCount()
	if n == 0 {
		return nil
	}
	k := w.rng.Intn(n)
	for p := PriorityMin; p <= PriorityInterrupt; p++ {
		for t := w.readyHead[p]; t != nil; t = t.qnext {
			if k == 0 {
				return t
			}
			k--
		}
	}
	return nil
}

// DirectedYieldFor donates at most slice of the caller's timeslice to
// target, then parks the caller at the back of its priority queue. A
// non-positive slice donates the remainder of the timeslice, like
// DirectedYield.
func (t *Thread) DirectedYieldFor(target *Thread, slice vclock.Duration) {
	t.checkNotStep("DirectedYieldFor")
	t.checkThreadContext("DirectedYieldFor")
	if slice < 0 {
		slice = 0
	}
	t.yieldSlice = slice
	t.DirectedYield(target)
}

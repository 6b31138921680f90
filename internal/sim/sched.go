package sim

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// settle brings the scheduler to a fixed point at the current instant:
// every CPU either is idle with an empty run queue, or runs the thread
// strict-priority dispatch (as modified by any boost) selects, with that
// thread's pending compute armed in the CPU's completion slot. Running
// threads with instantaneous work to do (no compute pending) are resumed
// one at a time until they park again. The driver calls settle after
// every event.
func (w *World) settle() {
	for {
		progress := false
		for _, c := range w.cpus {
			if w.adjust(c) {
				progress = true
			}
		}
		pumped := false
		for _, c := range w.cpus {
			t := c.current
			if t != nil && t.state == StateRunning && t.computeLeft == 0 && !c.completion.Armed() {
				w.pump(t)
				pumped = true
				break // re-evaluate dispatch after each pump
			}
		}
		if !pumped && !progress {
			return
		}
	}
}

// adjust performs at most one dispatch change on c and ensures the
// resident thread's compute is armed. It reports whether it switched.
func (w *World) adjust(c *cpu) bool {
	desired := w.pickFor(c)
	if desired != c.current {
		w.switchTo(c, desired)
		return true
	}
	if t := c.current; t != nil && t.computeLeft > 0 && !c.completion.Armed() {
		c.grantStart = w.clock
		c.completion.Arm(w.clock.Add(t.computeLeft))
	}
	return false
}

// pickFor returns the thread c should be running right now: the boost
// target while a boost is in force, otherwise the current thread unless a
// thread on a strictly higher ready level is runnable (preemption only
// for higher levels between quantum expiries; under pcr-rr levels are
// exactly the PCR priorities).
//
// When the dispatch is about to install a different thread and several
// threads of the winning level are queued, the choice among them is a
// genuine scheduling freedom — FIFO order is PCR's policy, not a
// correctness requirement — so the policy's Pick (and any OnSchedule
// hook layered over it) is consulted exactly once per such switch. The
// consultation never fires on the settle loop's post-switch re-evaluation
// (the installed thread is then c.current and no switch is pending),
// keeping decision sequences dense and replayable. Under plain pcr-rr
// (no hook) the consultation is skipped: its answer is always the FIFO
// head.
func (w *World) pickFor(c *cpu) *Thread {
	if c.boost != nil {
		b := c.boost
		stale := w.clock >= c.boostEnd ||
			b.state == StateDead || b.state == StateBlocked ||
			(b.state == StateRunning && b.cpu != c.index)
		if stale {
			c.boost = nil
		} else {
			return b
		}
	}
	top := w.topRunnable()
	cur := c.current
	if cur != nil && (top == nil || top.level <= cur.level) {
		return cur
	}
	if top == nil {
		return nil
	}
	// A switch to top is imminent (top sits on the run queue, cur does
	// not, so they differ). Offer the whole winning-level queue.
	if w.needPick && top.qnext != nil {
		return w.consultSchedule(c, w.scheduleCands(top, nil), false)
	}
	return top
}

// scheduleCands assembles an OnSchedule candidate list by walking a ready
// FIFO from head, plus an optional extra entry, reusing the world's
// scratch slice.
func (w *World) scheduleCands(head *Thread, extra *Thread) []*Thread {
	cands := w.schedCands[:0]
	for t := head; t != nil; t = t.qnext {
		cands = append(cands, t)
	}
	if extra != nil {
		cands = append(cands, extra)
	}
	w.schedCands = cands
	return cands
}

// consultSchedule offers one decision point to the effective policy
// (which layers any OnSchedule hook over the base policy's Pick/Rotate).
// cands[0] is the default pick; out-of-range answers select it.
func (w *World) consultSchedule(c *cpu, cands []*Thread, rotation bool) *Thread {
	d := Decision{Seq: w.schedSeq, CPU: c.index, Now: w.clock, Candidates: cands}
	w.schedSeq++
	var i int
	if rotation {
		i = w.policy.Rotate(d)
	} else {
		i = w.policy.Pick(d)
	}
	if i < 0 || i >= len(cands) {
		i = 0
	}
	return cands[i]
}

// switchTo installs `to` (possibly nil, meaning idle) on c, preempting
// any current thread back to the tail of its run queue. It charges the
// context-switch cost to the incoming thread and emits the switch trace
// event that Table 1's "thread switches/sec" column counts.
func (w *World) switchTo(c *cpu, to *Thread) {
	from := c.current
	if from == to {
		return
	}
	fromID := int64(trace.NoThread)
	if from != nil {
		fromID = int64(from.id)
		w.unscheduleCompute(c)
		from.state = StateRunnable
		from.cpu = -1
		w.pushReady(from, false)
		// A preempted thread re-enters the ready queue; record the
		// transition explicitly (Arg = the preemptor) so per-thread state
		// accounting never has to infer it from the switch record alone.
		toID := int64(trace.NoThread)
		if to != nil {
			toID = int64(to.id)
		}
		w.record(trace.Event{Time: w.clock, Kind: trace.KindReady, Thread: from.id, Arg: toID})
	}
	c.current = to
	if to == nil {
		c.quantum.Disarm()
		w.record(trace.Event{Time: w.clock, Kind: trace.KindSwitch, Thread: trace.NoThread, Arg: fromID, Aux: int64(c.index)})
		return
	}
	w.removeReady(to)
	to.state = StateRunning
	to.cpu = c.index
	// A boost continues the current timeslice ("the end of a timeslice
	// ends the effect of a YieldButNotToMe", §6.3); a normal dispatch
	// starts a fresh quantum.
	if !(c.boost == to && c.quantum.Armed()) {
		c.quantum.Arm(w.clock.Add(w.quantumFor(to)))
	}
	if w.cfg.SwitchCost > 0 {
		to.computeLeft += w.cfg.SwitchCost
	}
	w.record(trace.Event{Time: w.clock, Kind: trace.KindSwitch, Thread: to.id, Arg: fromID, Aux: int64(c.index)})
}

// unscheduleCompute disarms c's compute completion and banks the virtual
// CPU its resident thread has consumed so far.
func (w *World) unscheduleCompute(c *cpu) {
	if !c.completion.Armed() {
		return
	}
	c.completion.Disarm()
	t := c.current
	t.computeLeft -= w.clock.Sub(c.grantStart)
	if t.computeLeft < 0 {
		panic(fmt.Sprintf("sim: thread %s over-consumed its grant by %v", t.name, -t.computeLeft))
	}
}

// quantumExpire implements end-of-timeslice: any boost ends, and the CPU
// round-robins to another thread of equal or higher ready level if one is
// ready; otherwise the current thread continues with a fresh quantum.
//
// Rotation is the second decision point: when the incoming level equals
// the expiring thread's, both "rotate to any queued peer" and "let the
// current thread keep the CPU" are legal schedules, so the policy's
// Rotate (and any OnSchedule hook) may choose among the queue plus the
// current thread (appended last; picking it skips the switch). A strictly
// higher-level top offers only that queue — continuing would violate the
// level discipline.
//
// This is also where the Expired seam fires (MLFQ demotion, hybrid boost
// expiry) and the running thread's level is refreshed before the
// rotation comparison, so a policy that demotes the expiring thread sees
// the demotion take effect at this very expiry.
func (w *World) quantumExpire(c *cpu) {
	c.boost = nil
	t := c.current
	if t == nil {
		return
	}
	w.policy.Expired(t, w.clock)
	t.level = w.policyLevel(t, false)
	top := w.topRunnable()
	if top != nil && top.level >= t.level {
		pick := top
		if w.needPick {
			var keep *Thread
			if t.level == top.level {
				keep = t
			}
			if cands := w.scheduleCands(w.readyHead[top.level], keep); len(cands) > 1 {
				pick = w.consultSchedule(c, cands, true)
			}
		}
		if pick != t {
			w.switchTo(c, pick)
			return
		}
		// The policy elected to continue the current thread.
	}
	c.quantum.Arm(w.clock.Add(w.quantumFor(t)))
}

// quantumFor returns the timeslice to grant t: the policy's Quantum,
// with non-positive answers falling back to Config.Quantum.
func (w *World) quantumFor(t *Thread) vclock.Duration {
	if q := w.policy.Quantum(t, w.cfg.Quantum); q > 0 {
		return q
	}
	return w.cfg.Quantum
}

// pump runs t until it parks again (or its body ends) and applies the
// state transition it requested.
func (w *World) pump(t *Thread) {
	w.resume(t)
	w.afterPark(t)
}

// resume runs t until it parks or its body ends: one step of a
// stackless thread, else a switch to t's coroutine and back. An ended
// thread's coroutine goes back to the idle list.
func (w *World) resume(t *Thread) {
	if t.step != nil {
		t.runStep()
		return
	}
	t.co.next()
	if t.finished {
		t.releaseCoroutine()
	}
}

// afterPark applies the effect of whatever sim call made t park.
func (w *World) afterPark(t *Thread) {
	req := t.yieldReq
	t.yieldReq = yieldNone
	target := t.yieldTarget
	t.yieldTarget = nil
	slice := t.yieldSlice
	t.yieldSlice = 0

	var c *cpu
	if t.cpu >= 0 {
		c = w.cpus[t.cpu]
	}

	switch {
	case t.state == StateDead || t.state == StateBlocked:
		if c != nil && c.current == t {
			c.current = nil
			t.cpu = -1
			c.quantum.Disarm()
			// Mark the CPU idle so interval accounting sees the end of
			// this thread's execution interval; a successor dispatched
			// at the same instant appears as a separate switch-in.
			w.record(trace.Event{Time: w.clock, Kind: trace.KindSwitch, Thread: trace.NoThread, Arg: int64(t.id), Aux: int64(c.index)})
		}

	case req == yieldPlain || req == yieldButNotToMe || req == yieldDirected:
		if c == nil || c.current != t {
			panic(fmt.Sprintf("sim: yield from off-CPU thread %s", t.name))
		}
		switch req {
		case yieldButNotToMe:
			other := w.topRunnable()
			if other == nil {
				return // no other ready thread: caller keeps the CPU
			}
			c.boost = other
			c.boostEnd = c.quantum.When()
		case yieldDirected:
			if target != nil && target.state == StateRunnable {
				c.boost = target
				end := c.quantum.When()
				if slice > 0 {
					if e := w.clock.Add(slice); e < end {
						end = e
						// Force a dispatch pass when the donated slice
						// ends; the quantum slot fires too late.
						cc := c
						w.evq.Schedule(end, func() {
							if cc.boost == target && w.clock >= cc.boostEnd {
								cc.boost = nil
							}
						})
					}
				}
				c.boostEnd = end
			}
			// An unrunnable target degrades to a plain yield.
		}
		// Vacate: back of our priority's queue; the timeslice keeps
		// running so a boost lasts only until quantum end.
		w.unscheduleCompute(c)
		t.state = StateRunnable
		t.cpu = -1
		c.current = nil
		w.pushReady(t, false)
		// A yield vacates the CPU without a switch record of its own;
		// record the ready-queue re-entry (Arg = the thread itself) so
		// state accounting sees the running→ready edge at the yield
		// instant rather than at the successor's switch-in.
		w.record(trace.Event{Time: w.clock, Kind: trace.KindReady, Thread: t.id, Arg: int64(t.id)})

	case req == yieldPoll:
		// Scheduler poll (Fork, SetPriority): adjust() decides.

	case t.computeLeft > 0:
		// Compute request: adjust() arms the completion.

	default:
		panic(fmt.Sprintf("sim: thread %s parked for no reason (state %v)", t.name, t.state))
	}
}

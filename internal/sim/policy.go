package sim

import "repro/internal/vclock"

// Policy is a pluggable scheduling discipline. The dispatcher consults it
// at every point where the PCR runtime hardwired a choice: ready-queue
// admission (Level), the pick among equal-level candidates at a dispatch
// switch (Pick), end-of-quantum rotation (Rotate), timeslice sizing
// (Quantum), quantum-expiry bookkeeping (Expired), and periodic re-leveling
// of queued threads (Age/Tick).
//
// The interface lives in package sim so policies can accept *Thread
// without an import cycle; package sched re-exports it (`sched.Policy`),
// hosts the registry of named implementations, and parses the
// "name:param=val,..." specs the CLIs accept.
//
// The contract that keeps every policy a drop-in:
//
//   - Level maps a thread to one of the seven ready-queue levels. The
//     bitmap dispatcher then always runs the FIFO head of the highest
//     non-empty level, so a policy expresses ordering either spatially
//     (spread threads across levels, as pcr-rr and mlfq do) or by choice
//     (put everything on one level and order it via Pick, as edf and sjf
//     do). An invalid returned level falls back to the thread's priority.
//
//   - Pick and Rotate return an index into Decision.Candidates;
//     out-of-range values select Candidates[0]. At rotation the running
//     thread, when it shares the winning level, is appended last —
//     choosing it keeps the CPU without a switch.
//
//   - A Policy instance may hold per-thread state (mlfq and hybrid do)
//     and therefore MUST NOT be shared between worlds: thread pointers
//     from a dead world could alias a later world's arena. Construct one
//     instance per world (sched.Parse does).
//
// The built-in default, PCRPolicy, is the paper's discipline; worlds
// configured without Hooks.Policy use it. The dispatcher has one path
// for every policy, pcr-rr included: it asks the policy for every level,
// quantum, expiry and aging answer. The one thing it skips for the
// PCRPolicy value itself is the Pick/Rotate consultation, whose answer
// there is always the FIFO head.
type Policy interface {
	// Name returns the registry name ("pcr-rr", "edf", ...).
	Name() string

	// Level returns the ready-queue level for t as it is (re)enqueued.
	// wake is true when t just became runnable from blocked/new, false
	// when it is being requeued after preemption or a yield.
	Level(t *Thread, wake bool, now vclock.Time) Priority

	// Pick chooses among the equal-level candidates of an imminent
	// dispatch switch; Candidates[0] is the FIFO default.
	Pick(d Decision) int

	// Rotate chooses at end-of-quantum rotation; when the expiring
	// thread shares the winning level it is Candidates[len-1].
	Rotate(d Decision) int

	// Quantum returns the timeslice to grant t on dispatch; def is
	// Config.Quantum. Non-positive results select def.
	Quantum(t *Thread, def vclock.Duration) vclock.Duration

	// Expired observes that t consumed a full quantum while running
	// (the MLFQ demotion signal). The dispatcher refreshes t's level
	// via Level immediately afterwards.
	Expired(t *Thread, now vclock.Time)

	// Age is consulted for every queued thread on each policy tick;
	// returning (level, true) re-enqueues the thread at the tail of
	// level. It is the anti-starvation / aging seam.
	Age(t *Thread, now vclock.Time) (Priority, bool)

	// Tick returns the period of the aging sweep, or 0 for none. The
	// sweep stops once the world has no live threads.
	Tick() vclock.Duration
}

// pcrPolicy is the built-in discipline of the paper's PCR runtime: seven
// strict priorities, FIFO round-robin within a priority, one fixed
// quantum. Every method is the neutral answer: the level is the
// thread's priority, the pick is the FIFO head, the quantum is
// Config.Quantum, and there is no expiry bookkeeping or aging.
type pcrPolicy struct{}

func (pcrPolicy) Name() string                                           { return "pcr-rr" }
func (pcrPolicy) Level(t *Thread, wake bool, now vclock.Time) Priority   { return t.pri }
func (pcrPolicy) Pick(d Decision) int                                    { return 0 }
func (pcrPolicy) Rotate(d Decision) int                                  { return 0 }
func (pcrPolicy) Quantum(t *Thread, def vclock.Duration) vclock.Duration { return def }
func (pcrPolicy) Expired(t *Thread, now vclock.Time)                     {}
func (pcrPolicy) Age(t *Thread, now vclock.Time) (Priority, bool)        { return 0, false }
func (pcrPolicy) Tick() vclock.Duration                                  { return 0 }

// PCRPolicy is the default scheduling policy — the paper's strict-priority
// + round-robin discipline. Worlds with a nil Hooks.Policy use it, and
// sched.Parse("pcr-rr") returns exactly this value. Any value that
// answers as it does schedules the same; the dispatcher recognizes this
// one only to skip consulting Pick and Rotate, so a world running it
// records no decision points.
var PCRPolicy Policy = pcrPolicy{}

// hookPolicy adapts a Hooks.OnSchedule callback over a base policy: the
// hook sees every decision point first and a positive in-range answer
// wins; 0 or out-of-range defers to the base policy's choice. With the
// PCR base (whose choice is always Candidates[0]) this reproduces the
// original hook semantics exactly — 0 and out-of-range both select the
// default — so explore's decision recording, replay tokens and ddmin
// shrinking work unmodified over every policy.
type hookPolicy struct {
	base Policy
	hook func(Decision) int
}

func (h hookPolicy) Name() string { return h.base.Name() }

func (h hookPolicy) Level(t *Thread, wake bool, now vclock.Time) Priority {
	return h.base.Level(t, wake, now)
}

func (h hookPolicy) Pick(d Decision) int {
	if i := h.hook(d); i > 0 && i < len(d.Candidates) {
		return i
	}
	return h.base.Pick(d)
}

func (h hookPolicy) Rotate(d Decision) int {
	if i := h.hook(d); i > 0 && i < len(d.Candidates) {
		return i
	}
	return h.base.Rotate(d)
}

func (h hookPolicy) Quantum(t *Thread, def vclock.Duration) vclock.Duration {
	return h.base.Quantum(t, def)
}

func (h hookPolicy) Expired(t *Thread, now vclock.Time) { h.base.Expired(t, now) }

func (h hookPolicy) Age(t *Thread, now vclock.Time) (Priority, bool) { return h.base.Age(t, now) }

func (h hookPolicy) Tick() vclock.Duration { return h.base.Tick() }

// Package monitor implements Mesa-style monitors and condition variables
// on top of the sim thread kernel, following the model summarized in §2
// of "Using Threads in Interactive Systems: A Case Study": a monitor is a
// mutual-exclusion lock protecting a module's data; condition variables
// give explicit scheduling control; WAIT atomically releases the lock and
// may time out; NOTIFY has exactly-one-waiter-wakens semantics; BROADCAST
// wakes all waiters; and a woken waiter must compete for the mutex before
// re-entering — which is why "WAIT only in a loop" is the law (§5.3).
//
// Two of the paper's implementation issues are modeled as switchable
// options so their cost can be measured rather than assumed:
//
//   - DeferNotifyReschedule (§6.1): PCR's fix for spurious lock
//     conflicts. The notification itself is not deferred, but the
//     processor reschedule is, until the notifier exits the monitor, so
//     a higher-priority notifyee no longer wakes up only to block
//     immediately on the still-held mutex.
//
//   - Metalock donation (§6.2): each monitor's queue of waiting threads
//     is itself protected by a short-lived metalock; PCR donates cycles
//     from a thread blocked on the metalock to the thread holding it —
//     the one place PCR implements priority donation.
package monitor

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Options tune a monitor's modeled costs and semantics. The zero value
// selects defaults; negative costs disable the charge.
type Options struct {
	// DeferNotifyReschedule enables the §6.1 fix: a NOTIFY'd waiter
	// becomes runnable only when the notifier exits the monitor.
	DeferNotifyReschedule bool

	// LockCost is CPU charged on each monitor entry (and each mutex
	// reacquisition after a WAIT). Default 1 µs.
	LockCost vclock.Duration

	// NotifyCost is CPU charged by NOTIFY and BROADCAST. Default 1 µs.
	NotifyCost vclock.Duration

	// WaitCost is CPU charged when a WAIT begins. Default 2 µs.
	WaitCost vclock.Duration

	// MetalockHold, when positive, models the per-monitor metalock: each
	// entry/exit/notify holds the metalock for this long, and other
	// threads touching the monitor meanwhile contend for it.
	MetalockHold vclock.Duration

	// MetalockDonation makes a thread blocked on the metalock donate its
	// cycles to the holder via a directed yield (the PCR behavior);
	// without it the blocked thread busy-waits at its own priority and
	// metalock priority inversion is possible.
	MetalockDonation bool

	// HoareSignal selects the semantics of "the monitors originally
	// described by Hoare" that §2 contrasts with Mesa: NOTIFY hands the
	// monitor directly to the woken waiter (so the waited-for condition
	// is guaranteed to hold when WAIT returns, and "IF NOT cond THEN
	// WAIT" is actually correct, §5.3), while the signaller waits on an
	// urgent queue that outranks ordinary entrants. BROADCAST is not a
	// Hoare primitive and panics under this option.
	HoareSignal bool

	// PriorityInheritance implements the technique the paper declined
	// ("we chose not to incur the implementation overhead of providing
	// priority inheritance from blocked threads to threads holding
	// locks") and called for as future work (§7): a thread blocking on
	// the mutex raises the holder to its own priority until the holder
	// releases the monitor. Direct (one-level) inheritance only; as the
	// paper notes, the analogous problem on CV conditions is beyond what
	// an implementation can automate.
	PriorityInheritance bool
}

func (o Options) defaults() Options {
	switch {
	case o.LockCost == 0:
		o.LockCost = 1 * vclock.Microsecond
	case o.LockCost < 0:
		o.LockCost = 0
	}
	switch {
	case o.NotifyCost == 0:
		o.NotifyCost = 1 * vclock.Microsecond
	case o.NotifyCost < 0:
		o.NotifyCost = 0
	}
	switch {
	case o.WaitCost == 0:
		o.WaitCost = 2 * vclock.Microsecond
	case o.WaitCost < 0:
		o.WaitCost = 0
	}
	return o
}

// Monitor is a Mesa monitor lock. Create with New; the zero value is not
// usable. Monitors are not reentrant — Mesa's were not — and re-entry by
// the holder panics, surfacing the bug instead of deadlocking silently.
type Monitor struct {
	w    *sim.World
	id   int64
	name string
	opt  Options

	holder *sim.Thread
	queue  []*sim.Thread // FIFO mutex waiters
	conds  []*Cond

	// x is the state only the optional disciplines use, nil until one of
	// them first needs it (ext): most monitors, a workload's library
	// among them, are entered and exited and nothing else.
	x *monitorExt
}

// monitorExt is a monitor's state for Hoare signalling, priority
// inheritance, the §6.1 deferred reschedule and the metalock.
type monitorExt struct {
	urgent []*sim.Thread // Hoare signallers awaiting the monitor back (LIFO)

	// Priority-inheritance bookkeeping: the holder's own priority at
	// acquisition, restored at release if a blocker boosted it.
	holderBase sim.Priority
	boosted    bool

	// deferred reschedules accumulated by NOTIFY under the §6.1 fix,
	// released at monitor exit.
	deferred []*sim.Thread

	// metalock state (only used when opt.MetalockHold > 0)
	metaHolder  *sim.Thread
	metaWaiters []*sim.Thread
}

// ext returns the monitor's optional-discipline state, allocating it on
// first use.
func (m *Monitor) ext() *monitorExt {
	if m.x == nil {
		m.x = &monitorExt{}
	}
	return m.x
}

// New creates a monitor in w with default options.
func New(w *sim.World, name string) *Monitor {
	return NewWithOptions(w, name, Options{})
}

// NewWithOptions creates a monitor with explicit options.
func NewWithOptions(w *sim.World, name string, opt Options) *Monitor {
	return NewWithID(w, w.AllocMonitorID(), name, opt)
}

// NewWithID creates a monitor under an identifier the caller reserved
// with w.ReserveMonitorIDs. A pool that builds its monitors on first use
// calls it, so each monitor stamps the trace with the ID an up-front
// build would have given it.
func NewWithID(w *sim.World, id int64, name string, opt Options) *Monitor {
	return &Monitor{w: w, id: id, name: name, opt: opt.defaults()}
}

// ID returns the monitor's world-unique identifier, as stamped on trace
// events (Table 3 counts the distinct IDs seen).
func (m *Monitor) ID() int64 { return m.id }

// Name returns the monitor's debug name.
func (m *Monitor) Name() string { return m.name }

// Holder returns the thread currently inside the monitor, or nil.
func (m *Monitor) Holder() *sim.Thread { return m.holder }

// Enter acquires the monitor for t, queueing FIFO behind other entrants
// if it is held. This is the operation the Mesa compiler inserted at the
// top of every monitored procedure.
func (m *Monitor) Enter(t *sim.Thread) {
	t.Compute(m.opt.LockCost)
	m.withMetalock(t, func() {})
	contended := int64(0)
	if m.holder != nil {
		if m.holder == t {
			panic(fmt.Sprintf("monitor: thread %s re-entered monitor %q", t.Name(), m.name))
		}
		contended = 1
		m.inherit(t)
		m.blockOnMutex(t)
		if m.holder != t {
			panic(fmt.Sprintf("monitor: %s woke from mutex queue of %q without ownership", t.Name(), m.name))
		}
	} else {
		m.acquire(t)
	}
	m.w.Trace().Record(trace.Event{Time: m.w.Now(), Kind: trace.KindMLEnter, Thread: t.ID(), Arg: m.id, Aux: contended})
}

// Exit releases the monitor. Deferred NOTIFY reschedules (the §6.1 fix)
// are released here, and the mutex is handed FIFO to the next entrant.
func (m *Monitor) Exit(t *sim.Thread) {
	if m.holder != t {
		panic(fmt.Sprintf("monitor: thread %s exited monitor %q it does not hold", t.Name(), m.name))
	}
	m.withMetalock(t, func() {})
	m.w.Trace().Record(trace.Event{Time: m.w.Now(), Kind: trace.KindMLExit, Thread: t.ID(), Arg: m.id})
	m.releaseLocked(t)
}

// blockOnMutex parks t on the monitor's FIFO mutex queue. If an injected
// fault (World.KillThread) unwinds the wait, t's registration is removed
// — or, when the mutex had already been handed to t by a release that
// raced the kill, ownership is passed on — so the monitor cannot be left
// held by a corpse. World.Shutdown's teardown unwind (t.Killed) skips
// the cleanup, preserving the historical teardown semantics.
func (m *Monitor) blockOnMutex(t *sim.Thread) {
	m.queue = append(m.queue, t)
	defer func() {
		if r := recover(); r != nil {
			if !t.Killed() {
				if m.holder == t {
					m.releaseLocked(t)
				} else {
					for i, x := range m.queue {
						if x == t {
							m.queue = append(m.queue[:i], m.queue[i+1:]...)
							break
						}
					}
				}
			}
			panic(r)
		}
	}()
	t.Block(sim.BlockMutex)
}

// acquire installs t as the holder and snapshots its priority for
// inheritance restoration.
func (m *Monitor) acquire(t *sim.Thread) {
	m.holder = t
	if m.opt.PriorityInheritance {
		x := m.ext()
		x.holderBase = t.Priority()
		x.boosted = false
	}
}

// inherit raises the holder to the blocker's priority when inheritance
// is enabled.
func (m *Monitor) inherit(blocker *sim.Thread) {
	if !m.opt.PriorityInheritance || m.holder == nil {
		return
	}
	if blocker.Priority() > m.holder.Priority() {
		m.w.SetPriorityOf(m.holder, blocker.Priority())
		m.ext().boosted = true
	}
}

// releaseLocked passes the mutex on and flushes deferred wakes. Caller
// must be the holder. Hoare signallers on the urgent queue outrank
// ordinary entrants.
func (m *Monitor) releaseLocked(t *sim.Thread) {
	x := m.x
	if x != nil && x.boosted {
		m.w.SetPriorityOf(t, x.holderBase)
		x.boosted = false
	}
	switch {
	case x != nil && len(x.urgent) > 0:
		next := x.urgent[len(x.urgent)-1]
		x.urgent = x.urgent[:len(x.urgent)-1]
		m.acquire(next)
		m.w.WakeIfBlocked(next, t)
	case len(m.queue) > 0:
		next := m.queue[0]
		m.queue = m.queue[1:]
		m.acquire(next)
		m.w.WakeIfBlocked(next, t)
	default:
		m.holder = nil
	}
	if x != nil && len(x.deferred) > 0 {
		pending := x.deferred
		x.deferred = nil
		for _, waiter := range pending {
			m.w.WakeIfBlocked(waiter, t)
		}
	}
}

// With runs fn with the monitor held, modeling a monitored procedure (the
// compiler-inserted lock/unlock pair).
func (m *Monitor) With(t *sim.Thread, fn func()) {
	m.Enter(t)
	defer m.Exit(t)
	fn()
}

// withMetalock models the short per-monitor metalock protecting the
// monitor's waiter queues, held across each entry and exit. With donation
// enabled (the PCR behavior) a contender whose holder was preempted
// donates its cycles to the holder via a directed yield; without it the
// contender blocks and a middle-priority CPU hog can sustain a priority
// inversion on a lock held for mere microseconds.
func (m *Monitor) withMetalock(t *sim.Thread, fn func()) {
	if m.opt.MetalockHold <= 0 {
		fn()
		return
	}
	x := m.ext()
	for x.metaHolder != nil && x.metaHolder != t {
		holder := x.metaHolder
		switch {
		case m.opt.MetalockDonation && holder.State() == sim.StateRunnable:
			t.DirectedYieldFor(holder, m.opt.MetalockHold)
		case holder.State() == sim.StateRunning:
			// Holder is live on another CPU: spin for one hold period.
			t.Compute(m.opt.MetalockHold)
		default:
			x.metaWaiters = append(x.metaWaiters, t)
			t.Block(sim.BlockMutex)
		}
	}
	x.metaHolder = t
	t.Compute(m.opt.MetalockHold)
	fn()
	x.metaHolder = nil
	if len(x.metaWaiters) > 0 {
		pending := x.metaWaiters
		x.metaWaiters = nil
		for _, wt := range pending {
			m.w.WakeIfBlocked(wt, t)
		}
	}
}

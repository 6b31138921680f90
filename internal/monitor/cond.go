package monitor

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Cond is a Mesa condition variable belonging to a monitor. Each CV
// "represents a state of the module's data structures (a condition) and a
// queue of threads waiting for that condition to become true" (§2). CVs
// carry an optional timeout interval; §3 of the paper found that 50–80 %
// of Cedar's waits and up to 99 % of GVX's end in timeout rather than
// notification.
type Cond struct {
	m       *Monitor
	id      int64
	name    string
	timeout vclock.Duration // 0 means wait forever
	queue   []*waiter
	stats   CVStats
}

// waiter is one thread's registration on a CV queue. The notified flag
// resolves the race between a NOTIFY and the waiter's own timeout.
type waiter struct {
	t        *sim.Thread
	notified bool
	gone     bool // waiter timed out and removed itself
}

// NewCond creates a condition variable on m with no timeout interval.
func (m *Monitor) NewCond(name string) *Cond {
	c := &Cond{m: m, id: m.w.AllocCVID(), name: name}
	if len(m.conds) == 0 {
		m.w.RegisterAuditor(m.auditReport)
	}
	m.conds = append(m.conds, c)
	return c
}

// NewCondTimeout creates a condition variable whose WAITs time out after
// d (rounded up to the world's 50 ms timeout granularity when they run).
func (m *Monitor) NewCondTimeout(name string, d vclock.Duration) *Cond {
	c := m.NewCond(name)
	c.timeout = d
	return c
}

// ID returns the CV's world-unique identifier (Table 3 counts these).
func (c *Cond) ID() int64 { return c.id }

// Name returns the CV's debug name.
func (c *Cond) Name() string { return c.name }

// Monitor returns the monitor the CV belongs to.
func (c *Cond) Monitor() *Monitor { return c.m }

// SetTimeout changes the CV's timeout interval; 0 disables timeouts.
func (c *Cond) SetTimeout(d vclock.Duration) {
	if d < 0 {
		d = 0
	}
	c.timeout = d
}

// Timeout returns the CV's timeout interval.
func (c *Cond) Timeout() vclock.Duration { return c.timeout }

// Waiters returns the number of threads currently waiting.
func (c *Cond) Waiters() int {
	n := 0
	for _, w := range c.queue {
		if !w.gone {
			n++
		}
	}
	return n
}

// Wait atomically releases the monitor and waits for a NOTIFY/BROADCAST
// or the CV's timeout, then reacquires the monitor before returning. It
// reports whether the wait timed out. Like Mesa — and unlike Hoare — the
// condition is NOT guaranteed to hold on return: callers must use
//
//	for !condition { cv.Wait(t) }
//
// never an IF (§5.3 lists IF-waits among the community's recurring bugs).
func (c *Cond) Wait(t *sim.Thread) (timedOut bool) {
	m := c.m
	if m.holder != t {
		panic(fmt.Sprintf("monitor: WAIT on cv %q without holding monitor %q", c.name, m.name))
	}
	t.Compute(m.opt.WaitCost)
	aux := int64(-1)
	if c.timeout > 0 {
		aux = int64(c.timeout)
	}
	m.w.Trace().Record(trace.Event{Time: m.w.Now(), Kind: trace.KindWait, Thread: t.ID(), Arg: c.id, Aux: aux})

	wtr := &waiter{t: t}
	c.queue = append(c.queue, wtr)
	// WAIT atomically releases the monitor lock; trace the implicit exit
	// so enter/exit events pair up for trace validators.
	m.w.Trace().Record(trace.Event{Time: m.w.Now(), Kind: trace.KindMLExit, Thread: t.ID(), Arg: m.id})
	m.releaseLocked(t)

	func() {
		// If an injected fault (World.KillThread) unwinds the wait, the
		// dead waiter must leave the CV queue — otherwise it would absorb
		// a future NOTIFY — and must pass the monitor on if a Hoare
		// signal had already handed it over. World.Shutdown's teardown
		// unwind (t.Killed) deliberately skips the cleanup: teardown
		// never resumes the simulation, and mutating queues under it
		// would change what traces record.
		defer func() {
			if r := recover(); r != nil {
				if !t.Killed() {
					wtr.gone = true
					c.compact()
					if m.holder == t {
						m.releaseLocked(t)
					}
				}
				panic(r)
			}
		}()
		if c.timeout > 0 {
			t.BlockTimed(sim.BlockCV, c.timeout)
		} else {
			t.Block(sim.BlockCV)
		}
	}()

	// A NOTIFY that raced our timeout wins: the notification did occur.
	timedOut = !wtr.notified
	if timedOut {
		wtr.gone = true
		c.compact()
	}
	to := int64(0)
	c.stats.Waits++
	if timedOut {
		to = 1
		c.stats.Timeouts++
	}
	m.w.Trace().Record(trace.Event{Time: m.w.Now(), Kind: trace.KindWaitDone, Thread: t.ID(), Arg: c.id, Aux: to})

	// Under Hoare signalling the monitor was handed to us directly; under
	// Mesa we must compete for the mutex before re-entering — which is
	// where the spurious lock conflict of §6.1 materializes when the
	// reschedule was not deferred.
	if m.holder == t {
		m.w.Trace().Record(trace.Event{Time: m.w.Now(), Kind: trace.KindMLEnter, Thread: t.ID(), Arg: m.id, Aux: 0})
		return timedOut
	}
	m.reacquire(t)
	return timedOut
}

// reacquire takes the mutex for a thread returning from WAIT.
func (m *Monitor) reacquire(t *sim.Thread) {
	t.Compute(m.opt.LockCost)
	contended := int64(0)
	if m.holder != nil {
		contended = 1
		m.inherit(t)
		m.blockOnMutex(t)
	} else {
		m.acquire(t)
	}
	m.w.Trace().Record(trace.Event{Time: m.w.Now(), Kind: trace.KindMLEnter, Thread: t.ID(), Arg: m.id, Aux: contended})
}

// Notify makes exactly one waiting thread runnable ("exactly one waiter
// wakens"; some packages instead promise at least one, which WAIT-in-a-
// loop code cannot distinguish). With the monitor's §6.1 option the
// reschedule is deferred until the notifier exits the monitor.
func (c *Cond) Notify(t *sim.Thread) {
	if c.m.w.NotifyDropped(c.name) {
		// Fault injection swallowed the NOTIFY (§5.3): no waiter wakes,
		// and neither the stats nor the trace record that it was ever
		// attempted — exactly as if the call had been deleted.
		return
	}
	c.stats.Notifies++
	woke := c.signal(t, 1)
	c.m.w.Trace().Record(trace.Event{Time: c.m.w.Now(), Kind: trace.KindNotify, Thread: t.ID(), Arg: c.id, Aux: int64(woke)})
}

// NotifyExternal delivers a notification from driver context — a device
// interrupt posting a condition, with no thread identity and no monitor
// held. It marks the oldest live waiter notified and makes it runnable;
// the waiter still competes for the mutex before re-entering, exactly as
// for a thread-context NOTIFY. Returns the number of waiters woken (0 or
// 1).
func (c *Cond) NotifyExternal() int {
	if c.m.w.NotifyDropped(c.name) {
		return 0
	}
	c.stats.Notifies++
	wtr := c.pop()
	if wtr == nil {
		return 0
	}
	wtr.notified = true
	c.m.w.WakeIfBlocked(wtr.t, nil)
	c.m.w.Trace().Record(trace.Event{Time: c.m.w.Now(), Kind: trace.KindNotify, Thread: trace.NoThread, Arg: c.id, Aux: 1})
	return 1
}

// Broadcast makes all waiting threads runnable. It is not a Hoare
// primitive and panics under the HoareSignal option.
func (c *Cond) Broadcast(t *sim.Thread) {
	if c.m.opt.HoareSignal {
		panic(fmt.Sprintf("monitor: BROADCAST on cv %q is not a Hoare primitive", c.name))
	}
	c.stats.Broadcasts++
	woke := c.signal(t, len(c.queue))
	c.m.w.Trace().Record(trace.Event{Time: c.m.w.Now(), Kind: trace.KindBroadcast, Thread: t.ID(), Arg: c.id, Aux: int64(woke)})
}

func (c *Cond) signal(t *sim.Thread, max int) int {
	m := c.m
	if m.holder != t {
		panic(fmt.Sprintf("monitor: NOTIFY on cv %q without holding monitor %q", c.name, m.name))
	}
	t.Compute(m.opt.NotifyCost)
	if m.opt.HoareSignal {
		if max > 1 {
			panic(fmt.Sprintf("monitor: BROADCAST on cv %q is not a Hoare primitive", c.name))
		}
		return c.signalHoare(t)
	}
	woke := 0
	for woke < max {
		wtr := c.pop()
		if wtr == nil {
			break
		}
		wtr.notified = true
		woke++
		if m.opt.DeferNotifyReschedule {
			x := m.ext()
			x.deferred = append(x.deferred, wtr.t)
		} else {
			m.w.WakeIfBlocked(wtr.t, t)
		}
	}
	return woke
}

// signalHoare implements Hoare's original semantics: the monitor is
// handed directly to the woken waiter, so the condition the signaller
// just established still holds when WAIT returns; the signaller waits on
// the urgent queue and resumes holding the monitor once the waiter
// releases it (by exiting or waiting again).
func (c *Cond) signalHoare(t *sim.Thread) int {
	m := c.m
	wtr := c.pop()
	if wtr == nil {
		return 0
	}
	wtr.notified = true
	m.acquire(wtr.t)
	m.w.WakeIfBlocked(wtr.t, t)
	// The signaller implicitly releases the monitor to the waiter and
	// reacquires it from the urgent queue on resumption; trace both so
	// enter/exit events pair up.
	m.w.Trace().Record(trace.Event{Time: m.w.Now(), Kind: trace.KindMLExit, Thread: t.ID(), Arg: m.id})
	x := m.ext()
	x.urgent = append(x.urgent, t)
	t.Block(sim.BlockMutex)
	if m.holder != t {
		panic(fmt.Sprintf("monitor: Hoare signaller %s resumed without monitor %q", t.Name(), m.name))
	}
	m.w.Trace().Record(trace.Event{Time: m.w.Now(), Kind: trace.KindMLEnter, Thread: t.ID(), Arg: m.id, Aux: 1})
	return 1
}

// pop removes and returns the oldest live waiter, or nil.
func (c *Cond) pop() *waiter {
	for len(c.queue) > 0 {
		w := c.queue[0]
		c.queue = c.queue[1:]
		if !w.gone && !w.notified {
			return w
		}
	}
	return nil
}

// compact drops waiters that marked themselves gone.
func (c *Cond) compact() {
	live := c.queue[:0]
	for _, w := range c.queue {
		if !w.gone {
			live = append(live, w)
		}
	}
	c.queue = live
}

package sim

import (
	"fmt"

	"repro/internal/eventq"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// killSignal is panicked into a thread's coroutine by Shutdown.
type killSignalT struct{}

var killSignal any = killSignalT{}

// PanicError wraps a panic value recovered from a thread body, the
// simulator's equivalent of Mesa's "uncaught errors" that motivate the
// task-rejuvenation paradigm (§4.5).
type PanicError struct {
	Thread string
	Value  any
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: thread %q died of uncaught error: %v", e.Thread, e.Value)
}

// yieldKind describes a pending reschedule request set by a thread before
// it parks.
type yieldKind int

const (
	yieldNone yieldKind = iota
	yieldPlain
	yieldButNotToMe
	yieldDirected
	yieldPoll // re-evaluate scheduling only (SetPriority)
)

// Thread is one simulated PCR thread. All methods except the accessors
// must be called from the thread's own body (thread context). The zero
// value is not usable; threads are created by World.Spawn and
// Thread.Fork.
type Thread struct {
	w     *World
	id    int32
	name  string
	pri   Priority
	state State
	gen   int // fork generation: 0 for spawned roots

	cpu int // index of the CPU running this thread, or -1

	// The flags sit together so that they pack into one word.
	timedOut    bool // the last timed block ended by its timeout
	hasInjected bool // injected (below) is pending
	detached    bool // Detach: never to be joined
	joined      bool // a JOIN has claimed the thread
	finished    bool // the body has ended (result, err are final)
	parked      bool // the current step has armed its park
	killed      bool // Shutdown is tearing the thread down

	// Intrusive ready-queue linkage: threads are spliced directly into
	// their level's FIFO (World.readyHead/readyTail), so enqueue and
	// dequeue are pointer writes with no per-operation allocation. level
	// is the ready level the policy (Level) last gave the thread: the
	// queue it sits on, or, while it runs, the level it competes at. It
	// equals pri under pcr-rr.
	qnext, qprev *Thread
	level        Priority

	// Scheduling-policy metadata, declared by workloads and consumed by
	// deadline-, size- and class-aware policies (package sched). The
	// default pcr-rr policy never reads them.
	deadline   vclock.Time     // absolute completion deadline; 0 = none
	serviceEst vclock.Duration // expected remaining service demand; 0 = unknown
	sloClass   string          // SLO class label ("interactive", "batch", ...)

	// Virtual CPU demand. When positive, the completion slot of the CPU
	// the thread occupies is armed for the end of the demand.
	computeLeft vclock.Duration

	// Pending reschedule request, consumed by the driver at park.
	yieldReq    yieldKind
	yieldTarget *Thread
	yieldSlice  vclock.Duration // cap for DirectedYieldFor; 0 = rest of slice

	blockReason int
	blockSince  vclock.Time // when the current block began (DumpState)
	wakeTimer   eventq.Handle
	wakeFn      func() // pre-bound timeout callback, allocated at the first timed block

	// Pending fault injection (World.KillThread): the thread panics with
	// injected at its next dispatch.
	injected any

	// fork/join linkage
	joiner *Thread
	result any
	err    error

	// A thread runs exactly one of body and step. co runs body (see
	// coroutine); yield, called on it, parks the thread and switches
	// back to the driver. step runs on the driver's stack (runStep).
	body  Proc
	co    *coroutine
	yield func(struct{}) bool
	step  Stepper
}

// ID returns the thread's world-unique identifier (also used in traces).
func (t *Thread) ID() int32 { return t.id }

// Name returns the thread's debug name.
func (t *Thread) Name() string { return t.name }

// Priority returns the thread's current priority.
func (t *Thread) Priority() Priority { return t.pri }

// State returns the thread's current lifecycle state.
func (t *Thread) State() State { return t.state }

// Deadline returns the thread's absolute completion deadline, or 0 when
// none has been declared.
func (t *Thread) Deadline() vclock.Time { return t.deadline }

// SetDeadline declares the thread's absolute completion deadline (0
// clears it). Deadline-aware policies (edf, hybrid) order same-level
// candidates by it; the default policy ignores it. Callable from thread
// or driver context — workload arrival injectors stamp the deadline of
// the oldest pending request; the new value takes effect at the next
// scheduling decision.
func (t *Thread) SetDeadline(d vclock.Time) { t.deadline = d }

// ServiceEstimate returns the declared expected remaining service
// demand, or 0 when unknown.
func (t *Thread) ServiceEstimate() vclock.Duration { return t.serviceEst }

// SetServiceEstimate declares the expected remaining service demand (0
// clears it). Size-aware policies (sjf) order candidates by it. Callable
// from thread or driver context.
func (t *Thread) SetServiceEstimate(d vclock.Duration) { t.serviceEst = d }

// SLOClass returns the thread's SLO class label, or "" when none is set.
func (t *Thread) SLOClass() string { return t.sloClass }

// SetSLOClass declares the thread's SLO class label. Class-aware
// policies (hybrid) and the per-class latency breakdowns key on it.
func (t *Thread) SetSLOClass(class string) { t.sloClass = class }

// Generation returns the fork depth: 0 for threads created with Spawn,
// parent+1 for forked threads. Section 3 of the paper observed that "none
// of our benchmarks exhibited forking generations greater than 2".
func (t *Thread) Generation() int { return t.gen }

// Err returns the uncaught error that killed the thread, if any.
func (t *Thread) Err() error { return t.err }

// Killed reports whether the world is tearing this thread down
// (World.Shutdown). Bodies that recover panics for their own purposes —
// task rejuvenation, most notably — must re-panic when Killed is true so
// the teardown can complete:
//
//	if r := recover(); r != nil {
//		if t.Killed() {
//			panic(r)
//		}
//		// ... handle the application error
//	}
func (t *Thread) Killed() bool { return t.killed }

// BlockedOn returns the Block* reason the thread is currently blocked
// for, or -1 if it is not blocked. External wakers use it to avoid
// disturbing a thread that is blocked on something else (e.g. a monitor
// mutex) than the event they deliver.
func (t *Thread) BlockedOn() int {
	if t.state != StateBlocked {
		return -1
	}
	return t.blockReason
}

// World returns the world the thread belongs to.
func (t *Thread) World() *World { return t.w }

// Now returns the current virtual time.
func (t *Thread) Now() vclock.Time { return t.w.clock }

// String implements fmt.Stringer.
func (t *Thread) String() string {
	return fmt.Sprintf("t%d(%s pri=%d %v)", t.id, t.name, t.pri, t.state)
}

// main runs the thread's Proc on its coroutine, from the first dispatch
// to the end of the body. A panic escaping the body is recovered here,
// so the coroutine survives it and can run another thread: Shutdown's
// killSignal just marks the thread finished, and anything else is an
// uncaught error — the thread dies (paper §4.5) and JOIN observes it.
func (t *Thread) main(yield func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil {
			if r == killSignal {
				t.finished = true
				return
			}
			t.exit(nil, &PanicError{Thread: t.name, Value: r})
		}
	}()
	t.yield = yield
	if t.killed {
		panic(killSignal)
	}
	if t.hasInjected {
		t.hasInjected = false
		panic(t.injected)
	}
	res := t.body(t)
	t.exit(res, nil)
}

// runStep runs one step of a stackless thread on the driver's stack,
// from where it last parked to its next park or the end of its body. It
// stands in for main and park together: a kill or an injected error
// pending at dispatch is delivered here instead of calling Step, and a
// panic escaping Step — a step's misuse of the thread API included —
// kills the thread with a PanicError, as one escaping a Proc does.
func (t *Thread) runStep() {
	if t.killed {
		t.finished = true
		return
	}
	if t.hasInjected {
		t.hasInjected = false
		t.exit(nil, &PanicError{Thread: t.name, Value: t.injected})
		return
	}
	defer func() {
		if r := recover(); r != nil {
			// The step may have armed a timed park before it panicked.
			t.parked = false
			if t.wakeTimer.Valid() {
				t.w.evq.Cancel(t.wakeTimer)
				t.wakeTimer = eventq.Handle{}
			}
			t.exit(nil, &PanicError{Thread: t.name, Value: r})
		}
	}()
	parked := t.step.Step(t)
	switch {
	case parked && !t.parked:
		panic(fmt.Sprintf("sim: step of thread %s returned parked without arming a park", t.name))
	case !parked && t.parked:
		panic(fmt.Sprintf("sim: step of thread %s returned done with a park armed", t.name))
	case !parked:
		t.exit(nil, nil)
	}
	t.parked = false
}

// Parked reports whether the current step of a stackless thread has
// armed its park: the Compute, Block or BlockIO it called completes
// only after the step returns. A Compute the simulator can finish in
// place, or one with nothing to charge, arms no park. Always false for a
// Proc body, whose parks complete before the call returns.
func (t *Thread) Parked() bool { return t.parked }

// exit performs end-of-life bookkeeping in thread context (which is
// driver-exclusive, so direct mutation is safe).
func (t *Thread) exit(result any, err error) {
	w := t.w
	t.result, t.err = result, err
	t.finished = true
	t.state = StateDead
	t.computeLeft = 0
	w.liveCount--
	detachedFlag := int64(0)
	if t.detached {
		detachedFlag = 1
	}
	w.record(trace.Event{Time: w.clock, Kind: trace.KindExit, Thread: t.id, Arg: detachedFlag})
	if t.joiner != nil {
		w.WakeIfBlocked(t.joiner, t)
		t.joiner = nil
	}
	// A thread slot freed: admit one fork waiter (§5.4).
	if len(w.forkWaiters) > 0 {
		waiter := w.forkWaiters[0]
		w.forkWaiters = w.forkWaiters[1:]
		w.WakeIfBlocked(waiter, t)
	}
}

// park switches from the thread's coroutine back to the driver and
// returns when the driver resumes this thread. Every operation that
// consumes time or gives up the CPU funnels through here, or, in a
// step, through arm.
func (t *Thread) park() {
	t.yield(struct{}{})
	if t.killed {
		panic(killSignal)
	}
	if t.hasInjected {
		t.hasInjected = false
		panic(t.injected)
	}
}

// arm is park for a stackless thread, which cannot be suspended
// mid-call: it records the park for runStep and returns, and the step
// then returns to the driver itself.
func (t *Thread) arm() {
	if t.parked {
		panic(fmt.Sprintf("sim: step of thread %s armed a second park", t.name))
	}
	t.parked = true
}

// Compute consumes d of virtual CPU time. The thread may be preempted and
// rescheduled arbitrarily many times before Compute returns. Non-positive
// d returns immediately. In a step (see Stepper), Compute instead arms
// the park and returns at once, unless it finishes the demand in place.
func (t *Thread) Compute(d vclock.Duration) {
	if d <= 0 {
		return
	}
	if f := t.w.cfg.Hooks.OnCompute; f != nil {
		if d = f(t, d); d <= 0 {
			return
		}
	}
	w := t.w
	// Fast path: a running thread with no runnable competitor and no
	// intervening event can consume its demand by advancing the clock in
	// place, skipping two coroutine switches and a heap round-trip. This
	// is legal exactly when nothing could observe the difference: no
	// thread is ready (readyMask == 0 — an idle peer CPU stays idle), no
	// event fires at or before the completion instant (strict >, so
	// same-timestamp FIFO order survives; NextTime merges the CPUs' timer
	// slots, so this CPU's quantum expiry and any other CPU's compute
	// completion bound `end` too),
	// the current Run's horizon is not crossed, and no Stop is pending.
	// The bumped eventsProcessed stands in for the completion slot the
	// slow path would have popped, keeping event counts byte-identical.
	if t.computeLeft == 0 && t.state == StateRunning && w.readyMask == 0 && !w.stopped {
		if end := w.clock.Add(d); end <= w.horizon && w.evq.NextTime() > end {
			w.eventsProcessed++
			w.clock = end
			return
		}
	}
	t.computeLeft += d
	if t.step != nil {
		t.arm() // the demand is met before the next Step
		return
	}
	for t.computeLeft > 0 {
		t.park()
	}
}

// Block parks the thread until some other agent calls
// World.WakeIfBlocked. reason is one of the Block* constants and is
// recorded in the trace.
func (t *Thread) Block(reason int) {
	t.blockAt(reason, vclock.Never)
}

// BlockTimed parks the thread until woken or until d elapses, whichever
// comes first, and reports whether the timeout fired. The duration is
// rounded up to the world's timeout granularity (50 ms in PCR), which is
// why §3 of the paper sees CV wait times quantized at 50 ms.
func (t *Thread) BlockTimed(reason int, d vclock.Duration) (timedOut bool) {
	t.checkNotStep("BlockTimed")
	if d < 0 {
		d = 0
	}
	d = d.RoundUp(t.w.cfg.TimeoutGranularity)
	return t.blockAt(reason, t.w.clock.Add(d))
}

func (t *Thread) blockAt(reason int, deadline vclock.Time) (timedOut bool) {
	w := t.w
	t.checkThreadContext("Block")
	t.blockReason = reason
	t.blockSince = w.clock
	t.timedOut = false
	t.state = StateBlocked
	w.record(trace.Event{Time: w.clock, Kind: trace.KindBlock, Thread: t.id, Aux: int64(reason)})
	if deadline != vclock.Never {
		if t.wakeFn == nil {
			// Bound once, on first use: most threads never time a block,
			// and a closure per Block would allocate on the hot path.
			t.wakeFn = func() {
				t.wakeTimer = eventq.Handle{}
				t.timedOut = true
				w.makeRunnable(t, nil)
			}
		}
		t.wakeTimer = w.evq.Schedule(deadline, t.wakeFn)
	}
	if t.step != nil {
		t.arm()
		return false
	}
	t.park()
	return t.timedOut
}

// Sleep blocks the thread for d of virtual time (rounded up to the
// timeout granularity). It is the primitive under the sleeper and
// one-shot paradigms.
func (t *Thread) Sleep(d vclock.Duration) {
	t.checkNotStep("Sleep")
	if d <= 0 {
		return
	}
	t.w.record(trace.Event{Time: t.w.clock, Kind: trace.KindSleep, Thread: t.id, Aux: int64(d)})
	t.BlockTimed(BlockSleep, d)
}

// BlockTimedExact is BlockTimed without the CV-timeout granularity
// rounding: it models OS-level waits (a read or poll with a timeout)
// whose deadline the kernel honors precisely.
func (t *Thread) BlockTimedExact(reason int, d vclock.Duration) (timedOut bool) {
	t.checkNotStep("BlockTimedExact")
	if d < 0 {
		d = 0
	}
	return t.blockAt(reason, t.w.clock.Add(d))
}

// BlockIO blocks the thread for exactly d, modeling synchronous device or
// file I/O: the completion interrupt wakes the thread precisely, so —
// unlike Sleep — the 50 ms CV-timeout granularity does not apply.
func (t *Thread) BlockIO(d vclock.Duration) {
	if d <= 0 {
		return
	}
	t.w.record(trace.Event{Time: t.w.clock, Kind: trace.KindSleep, Thread: t.id, Aux: int64(d)})
	t.blockAt(BlockSleep, t.w.clock.Add(d))
}

// Yield invokes the scheduler: the calling thread remains runnable and
// competes again. If it is still the highest-priority ready thread it is
// rescheduled immediately — the behavior that defeats the slack process in
// §5.2 when the buffer thread outranks the imaging thread.
func (t *Thread) Yield() {
	t.checkNotStep("Yield")
	t.checkThreadContext("Yield")
	t.w.record(trace.Event{Time: t.w.clock, Kind: trace.KindYield, Thread: t.id, Arg: trace.NoThread, Aux: trace.YieldPlain})
	t.yieldReq = yieldPlain
	t.park()
}

// YieldButNotToMe gives the processor to the highest-priority ready
// thread other than the caller, if such a thread exists, even if that
// thread has lower priority than the caller. The effect lasts until the
// end of the current timeslice (§6.3). This is the primitive the authors
// invented to make the X-server slack process batch effectively (§5.2).
func (t *Thread) YieldButNotToMe() {
	t.checkNotStep("YieldButNotToMe")
	t.checkThreadContext("YieldButNotToMe")
	t.w.record(trace.Event{Time: t.w.clock, Kind: trace.KindYield, Thread: t.id, Arg: trace.NoThread, Aux: trace.YieldButNotToMe})
	t.yieldReq = yieldButNotToMe
	t.park()
}

// DirectedYield donates the remainder of the caller's timeslice to the
// target thread if it is runnable; otherwise it behaves like Yield. The
// SystemDaemon uses directed yields to give all ready threads some CPU
// regardless of priority (§6.2).
func (t *Thread) DirectedYield(target *Thread) {
	t.checkNotStep("DirectedYield")
	t.checkThreadContext("DirectedYield")
	arg := int64(trace.NoThread)
	if target != nil {
		arg = int64(target.id)
	}
	t.w.record(trace.Event{Time: t.w.clock, Kind: trace.KindYield, Thread: t.id, Arg: arg, Aux: trace.YieldDirected})
	t.yieldReq = yieldDirected
	t.yieldTarget = target
	t.park()
}

// SetPriority changes the thread's own priority (World.SetPriorityOf)
// and invokes the scheduler, which may preempt the caller if it no
// longer ranks highest.
func (t *Thread) SetPriority(p Priority) {
	t.checkNotStep("SetPriority")
	t.checkThreadContext("SetPriority")
	if p == t.pri {
		return
	}
	t.w.SetPriorityOf(t, p)
	t.yieldReq = yieldPoll
	t.park()
}

// Fork creates a child thread running body at the caller's priority and
// returns it. If the world has a thread limit and it is reached, Fork
// waits for resources (the §5.4 behavior: "our more recent
// implementations simply wait in the fork implementation"), which the
// user experiences as an unexplained delay.
func (t *Thread) Fork(name string, body Proc) *Thread {
	return t.ForkPri(name, t.pri, body)
}

// ForkPri creates a child thread with an explicit initial priority.
func (t *Thread) ForkPri(name string, pri Priority, body Proc) *Thread {
	w := t.w
	t.checkNotStep("Fork")
	t.checkThreadContext("Fork")
	for w.cfg.MaxThreads > 0 && w.liveCount >= w.cfg.MaxThreads {
		w.forkWaiters = append(w.forkWaiters, t)
		t.Block(BlockFork)
	}
	child := w.newThread(name, pri, body, nil, t)
	w.record(trace.Event{Time: w.clock, Kind: trace.KindFork, Thread: t.id, Arg: int64(child.id), Aux: int64(pri)})
	w.makeRunnable(child, t)
	// Forking invokes the scheduler: a higher-priority child preempts
	// its parent at this point.
	t.yieldReq = yieldPoll
	t.park()
	return child
}

// ErrNoThreads is returned by TryFork when the world's thread limit is
// reached — the behavior of "earlier versions of the systems [which]
// would raise an error when a FORK failed" (§5.4). The paper records that
// "the standard programming practice was to catch the error and to try to
// recover, but good recovery schemes seem never to have been worked out."
var ErrNoThreads = fmt.Errorf("sim: FORK failed: thread limit reached")

// TryFork is Fork with the old §5.4 failure semantics: instead of waiting
// for resources it returns ErrNoThreads when the world's MaxThreads limit
// is reached.
func (t *Thread) TryFork(name string, body Proc) (*Thread, error) {
	w := t.w
	t.checkNotStep("TryFork")
	t.checkThreadContext("TryFork")
	if w.cfg.MaxThreads > 0 && w.liveCount >= w.cfg.MaxThreads {
		return nil, ErrNoThreads
	}
	child := w.newThread(name, t.pri, body, nil, t)
	w.record(trace.Event{Time: w.clock, Kind: trace.KindFork, Thread: t.id, Arg: int64(child.id), Aux: int64(t.pri)})
	w.makeRunnable(child, t)
	t.yieldReq = yieldPoll
	t.park()
	return child, nil
}

// Join waits for child to exit and returns its body's result and error.
// A thread may be joined at most once, and never after Detach; violations
// panic, as they indicate a programming error in the simulation.
func (t *Thread) Join(child *Thread) (any, error) {
	t.checkNotStep("Join")
	t.checkThreadContext("Join")
	if child.detached {
		panic(fmt.Sprintf("sim: JOIN of detached thread %s", child.name))
	}
	if child.joined {
		panic(fmt.Sprintf("sim: thread %s joined twice", child.name))
	}
	child.joined = true
	for !child.finished {
		child.joiner = t
		t.Block(BlockJoin)
	}
	t.w.record(trace.Event{Time: t.w.clock, Kind: trace.KindJoin, Thread: t.id, Arg: int64(child.id)})
	return child.result, child.err
}

// Detach declares that the thread will never be joined, letting the
// implementation recover its resources at exit.
func (t *Thread) Detach() {
	if t.joined {
		panic(fmt.Sprintf("sim: DETACH after JOIN of thread %s", t.name))
	}
	t.detached = true
}

func (t *Thread) checkThreadContext(op string) {
	if t.state != StateRunning {
		panic(fmt.Sprintf("sim: %s called on thread %s which is %v (thread-context operations may only be invoked from the thread's own body)", op, t.name, t.state))
	}
}

// checkNotStep guards the operations only a Proc body may call: each
// needs its caller resumed mid-call, with a result or with the
// scheduler's verdict, and a step parks only by returning.
func (t *Thread) checkNotStep(op string) {
	if t.step != nil {
		panic(fmt.Sprintf("sim: %s called by the step of stackless thread %s (a step parks only in Compute, Block or BlockIO)", op, t.name))
	}
}

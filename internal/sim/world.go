package sim

import (
	"fmt"
	"io"
	"math/bits"
	"math/rand"

	"repro/internal/eventq"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// World is one simulated PCR instance: a clock, an event queue, a set of
// CPUs, a run queue, and the population of threads. Create one with
// NewWorld, populate it with Spawn and At, then drive it with Run.
//
// A World is not safe for concurrent use; the simulation itself supplies
// all the concurrency semantics.
type World struct {
	cfg     Config
	clock   vclock.Time
	horizon vclock.Time // current Run's `until`; bounds the compute fast path
	evq     eventq.Queue
	sink    trace.Sink
	traceOn bool // false when sink is trace.Discard: record() short-circuits
	rng     *rand.Rand

	cpus []*cpu

	// The ready threads form one intrusive doubly-linked FIFO per priority
	// (Thread.qnext/qprev), with readyMask holding a set bit for every
	// non-empty level so pick-next is a single bits.Len32 rather than a
	// scan, and enqueue/dequeue are pointer splices rather than slice
	// surgery. readyCount caches the total population for DumpState and
	// the SystemDaemon's uniform victim choice.
	readyHead  [NumPriorities + 1]*Thread
	readyTail  [NumPriorities + 1]*Thread
	readyMask  uint32
	readyCount int

	threads     []*Thread // every thread ever created (for Shutdown)
	liveCount   int
	nextID      int32
	forkWaiters []*Thread

	// threadArena is the tail of the current allocation chunk: Thread
	// structs are carved from doubling slabs instead of being allocated
	// one heap object at a time, which is what keeps worlds with
	// 10k-session populations — and fleets of such worlds — cheap to
	// instantiate in bulk. Slots are never recycled; dead threads keep
	// their struct, exactly as before.
	threadArena []Thread
	arenaNext   int

	stopped bool

	monitorIDs int64
	cvIDs      int64

	// eventsProcessed counts driver-loop event pops; the probe fields
	// remember what has already been flushed to cfg.Probe so repeated
	// Run calls account each event and clock advance exactly once.
	eventsProcessed int64
	probeSentEvents int64
	probeSentClock  vclock.Time

	// onIdleDeadlock, if set, is invoked (driver context) when the world
	// detects deadlock; used by tests.
	deadlocked []*Thread

	// schedSeq numbers OnSchedule decision points; schedCands is the
	// candidate scratch slice reused across consultations.
	schedSeq   int64
	schedCands []*Thread

	// policy is the effective scheduling discipline (Hooks.Policy with
	// any OnSchedule hook layered on top; PCRPolicy when unset). Every
	// level, quantum, expiry and aging answer comes from it. needPick
	// gates only the Pick/Rotate consultation (see NewWorld).
	policy     Policy
	needPick   bool
	ageScratch []ageMove
}

// ageMove is ageReady's scratch record: a queued thread and the level the
// policy's Age wants it moved to.
type ageMove struct {
	t     *Thread
	level Priority
}

type cpu struct {
	index   int
	current *Thread

	// The CPU's two timer slots, registered with the world's queue once:
	// the running thread's timeslice end (quantumExpire) and the end of
	// its compute grant, armed at grantStart (the callback zeroes the
	// resident thread's computeLeft). Dispatches, blocks and preemptions
	// re-arm and disarm them in place; neither is a queue event.
	quantum    eventq.Timer
	completion eventq.Timer
	grantStart vclock.Time

	boost    *Thread // dispatch override from YieldButNotToMe / directed yield
	boostEnd vclock.Time
}

// NewWorld creates a world from cfg (see Config.Defaults). If
// cfg.SystemDaemon is set, the daemon thread is spawned immediately.
func NewWorld(cfg Config) *World {
	cfg = cfg.Defaults()
	w := &World{
		cfg:  cfg,
		sink: cfg.Trace,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	pol := cfg.Hooks.Policy
	if pol == nil {
		pol = PCRPolicy
	}
	// The one identity test. PCRPolicy's Pick and Rotate always answer
	// the FIFO head, so consulting them would walk the ready queue on
	// every switch for nothing, and a pcr-rr world records no decision
	// points (TestExplicitDefaultIsByteIdentical pins the count at 0).
	w.needPick = cfg.Hooks.OnSchedule != nil || pol != PCRPolicy
	if h := cfg.Hooks.OnSchedule; h != nil {
		pol = hookPolicy{base: pol, hook: h}
	}
	w.policy = pol
	for i := 0; i < cfg.CPUs; i++ {
		c := &cpu{index: i}
		w.evq.Register(&c.quantum, func() { w.quantumExpire(c) })
		w.evq.Register(&c.completion, func() { c.current.computeLeft = 0 })
		w.cpus = append(w.cpus, c)
	}
	// Attach any per-world observer sink before the first thread (the
	// SystemDaemon included) exists, so it sees the complete event stream.
	if f := cfg.Hooks.OnWorld; f != nil {
		if s := f(w); s != nil {
			w.sink = trace.Tee(w.sink, s)
		}
	}
	// Tracing fast path: when the effective sink is the Discard singleton
	// no one can observe the stream, so record() skips building events
	// altogether. Discard's dynamic type is a comparable struct, which
	// makes this test safe against arbitrary sink implementations.
	w.traceOn = w.sink != trace.Discard
	if cfg.SystemDaemon {
		w.spawnSystemDaemon()
	}
	// The policy may request a periodic aging sweep. The tick re-arms
	// itself while live threads exist, so aging worlds still quiesce once
	// every thread has exited. (A world that goes entirely dead and later
	// spawns new threads from At callbacks loses its tick; none of the
	// shipped workloads do that.)
	if period := w.policy.Tick(); period > 0 {
		w.schedulePolicyTick(period)
	}
	cfg.Hooks.Probe.observeWorld()
	return w
}

// schedulePolicyTick arms the policy's aging sweep one period from now.
func (w *World) schedulePolicyTick(period vclock.Duration) {
	w.evq.Schedule(w.clock.Add(period), func() {
		w.ageReady()
		if w.liveCount > 0 && !w.stopped {
			w.schedulePolicyTick(period)
		}
	})
}

// ageReady offers every queued thread to the policy's Age seam and
// re-enqueues the movers at their new levels. Collect-then-move keeps the
// sweep well-defined while the queues are being walked.
func (w *World) ageReady() {
	moved := w.ageScratch[:0]
	for p := PriorityMin; p <= PriorityInterrupt; p++ {
		for t := w.readyHead[p]; t != nil; t = t.qnext {
			if nl, ok := w.policy.Age(t, w.clock); ok && nl.valid() && nl != t.level {
				moved = append(moved, ageMove{t, nl})
			}
		}
	}
	for _, m := range moved {
		w.removeReady(m.t)
		m.t.level = m.level
		w.pushReadyAt(m.t, m.level)
	}
	w.ageScratch = moved[:0]
}

// Now returns the current virtual time.
func (w *World) Now() vclock.Time { return w.clock }

// Config returns the world's effective (defaulted) configuration.
func (w *World) Config() Config { return w.cfg }

// Rand returns the world's deterministic random source. It is live
// state: every draw advances the stream that the world's own machinery
// (the SystemDaemon's victim choice, the in-world workload models)
// consumes, so two callers sharing it perturb each other. Code outside
// the world — a cluster's router, a test harness, an open-loop load
// generator — must use DeriveRand instead, so sibling instances in a
// multi-world run stay bitwise independent.
func (w *World) Rand() *rand.Rand { return w.rng }

// DeriveRand returns a new deterministic random stream derived from the
// world's seed and name. Unlike Rand, the returned stream is private to
// the caller: drawing from it never perturbs the world's own stream or
// any stream derived under a different name, and the world never draws
// from it. The same (seed, name) pair always yields the same stream, so
// derived streams are as reproducible as the world itself. Each call
// returns a fresh generator positioned at the stream's start.
func (w *World) DeriveRand(name string) *rand.Rand {
	// FNV-1a over the name, mixed with the seed through splitmix64's
	// finalizer: cheap, portable integer arithmetic with no platform-
	// dependent behavior, so derived streams are stable everywhere.
	const (
		fnvOffset = 0xcbf29ce484222325
		fnvPrime  = 0x100000001b3
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	z := h + uint64(w.cfg.Seed)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// Trace returns the world's trace sink, letting higher layers (monitors,
// workloads) emit their own events into the same stream.
func (w *World) Trace() trace.Sink { return w.sink }

// LiveThreads returns the number of threads that have been created and
// not yet exited.
func (w *World) LiveThreads() int { return w.liveCount }

// Threads returns a copy of the world's thread table — every thread ever
// created, in creation order. Callers may keep or reorder the returned
// slice freely.
func (w *World) Threads() []*Thread {
	out := make([]*Thread, len(w.threads))
	copy(out, w.threads)
	return out
}

// AllocMonitorID and AllocCVID hand out world-unique identifiers so the
// monitor package can stamp trace events; Table 3 of the paper counts the
// distinct IDs observed during a benchmark.
func (w *World) AllocMonitorID() int64 { w.monitorIDs++; return w.monitorIDs }

// ReserveMonitorIDs takes the next n monitor identifiers in one call and
// returns base: the reserved IDs are base+1 .. base+n, exactly those n
// AllocMonitorID calls would have returned, and the next AllocMonitorID
// returns base+n+1. A pool that builds its monitors lazily
// (monitor.NewWithID) reserves their IDs up front this way, so every
// monitor created after it keeps the ID it would have had. It panics on
// a negative n.
func (w *World) ReserveMonitorIDs(n int) (base int64) {
	if n < 0 {
		panic(fmt.Sprintf("sim: cannot reserve %d monitor IDs", n))
	}
	base = w.monitorIDs
	w.monitorIDs += int64(n)
	return base
}

// AllocCVID allocates a world-unique condition-variable identifier.
func (w *World) AllocCVID() int64 { w.cvIDs++; return w.cvIDs }

func (w *World) record(ev trace.Event) {
	if !w.traceOn {
		return
	}
	w.sink.Record(ev)
}

// At schedules fn to run in driver context at time t (or now, if t is in
// the past). Driver-context callbacks may Spawn threads and schedule more
// callbacks but must not call thread-context operations (Compute, monitor
// entry, ...). Workload generators are built from At callbacks.
func (w *World) At(t vclock.Time, fn func()) {
	w.evq.Schedule(max(t, w.clock), fn)
}

// Ticket takes the place in the event order that an At call made now
// would take, without scheduling anything. Redeem it later with
// ArmTicket: the slot's callback then runs exactly where that At call
// would have run it, ahead of every event scheduled since for the same
// instant. Call from driver context.
func (w *World) Ticket() uint64 { return w.evq.Reserve() }

// RegisterTimer binds the caller-owned timer slot t to the world's event
// queue and to fn, which runs in driver context when the slot fires.
// Call from driver context, once per slot.
func (w *World) RegisterTimer(t *eventq.Timer, fn func()) { w.evq.Register(t, fn) }

// ArmTicket arms the registered slot t to fire at at (or now, if at is in
// the past), ordered as if At had been called when ticket was taken. A
// driver with an ordered backlog of callbacks can so keep one of them
// armed at a time instead of scheduling all of them, and the world
// processes the same events in the same order. Each ticket may be
// redeemed once. Call from driver context.
func (w *World) ArmTicket(t *eventq.Timer, at vclock.Time, ticket uint64) {
	t.ArmSeq(max(at, w.clock), ticket)
}

// NextEvent returns the instant of the earliest scheduled event, or
// vclock.Never when nothing is scheduled. A world that Run has left at
// a horizon before that instant has nothing to do until it.
func (w *World) NextEvent() vclock.Time { return w.evq.NextTime() }

// After schedules fn to run in driver context d from now.
func (w *World) After(d vclock.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	w.At(w.clock.Add(d), fn)
}

// Every schedules fn to run in driver context every period, starting one
// period from now, until the world stops.
func (w *World) Every(period vclock.Duration, fn func()) {
	if period <= 0 {
		panic("sim: Every period must be positive")
	}
	var tick func()
	tick = func() {
		fn()
		if !w.stopped {
			w.After(period, tick)
		}
	}
	w.After(period, tick)
}

// Stop makes the current Run return at the end of the current event.
func (w *World) Stop() { w.stopped = true }

// Spawn creates a thread from driver context (before Run, or inside an At
// callback) and makes it runnable. Threads created by other threads
// should use Thread.Fork instead, which also traces the fork edge.
func (w *World) Spawn(name string, pri Priority, body Proc) *Thread {
	return w.spawned(w.newThread(name, pri, body, nil, nil))
}

// SpawnStep is Spawn for a stackless thread: body's Step runs on the
// driver's stack at every dispatch, and the thread never holds a
// coroutine (see Stepper). Apart from what a step may not call, the
// thread is indistinguishable from one running the equivalent Proc:
// same trace, same scheduling, same fault delivery.
func (w *World) SpawnStep(name string, pri Priority, body Stepper) *Thread {
	if body == nil {
		panic("sim: nil thread body")
	}
	return w.spawned(w.newThread(name, pri, nil, body, nil))
}

// spawned traces a driver-context creation of t and makes it runnable.
func (w *World) spawned(t *Thread) *Thread {
	w.record(trace.Event{Time: w.clock, Kind: trace.KindFork, Thread: trace.NoThread, Arg: int64(t.id), Aux: int64(t.pri)})
	w.makeRunnable(t, nil)
	return t
}

// newThread creates a thread running body, or step when body is nil.
func (w *World) newThread(name string, pri Priority, body Proc, step Stepper, parent *Thread) *Thread {
	if !pri.valid() {
		panic(fmt.Sprintf("sim: invalid priority %d for thread %q", pri, name))
	}
	if body == nil && step == nil {
		panic("sim: nil thread body")
	}
	w.nextID++
	t := w.allocThread()
	*t = Thread{
		w:     w,
		id:    w.nextID,
		name:  name,
		pri:   pri,
		state: StateNew,
		cpu:   -1,
		body:  body,
		step:  step,
	}
	if parent != nil {
		t.gen = parent.gen + 1
	}
	w.threads = append(w.threads, t)
	w.liveCount++
	// The coroutine is attached here, not at first dispatch. The runtime
	// sizes a new goroutine's stack from the average stack use it saw at
	// recent collections, so a population spawned while a world is being
	// set up gets the minimum stack, whereas creating the same coroutines
	// lazily, once the run is under way, would give each the larger
	// adaptive size — measurably more resident memory in worlds holding
	// thousands of session threads.
	if step == nil {
		t.attachCoroutine()
	}
	if f := w.cfg.Hooks.OnFork; f != nil {
		f(parent, t)
	}
	return t
}

// Thread-arena chunk bounds: the first slab is small so toy worlds stay
// lean, then slabs double so a 10k-thread world needs ~11 allocations
// for its Thread structs instead of 10k.
const (
	threadArenaMin = 8
	threadArenaMax = 4096
)

// allocThread carves the next Thread slot out of the arena, growing it
// with a doubled slab when the current one is exhausted. Pointers into
// earlier slabs stay valid forever: slabs are never moved or reused.
func (w *World) allocThread() *Thread {
	if w.arenaNext == len(w.threadArena) {
		n := len(w.threadArena) * 2
		if n < threadArenaMin {
			n = threadArenaMin
		}
		if n > threadArenaMax {
			n = threadArenaMax
		}
		w.threadArena = make([]Thread, n)
		w.arenaNext = 0
	}
	t := &w.threadArena[w.arenaNext]
	w.arenaNext++
	return t
}

// Run drives the simulation until the given horizon, until it quiesces or
// deadlocks, or until Stop is called, and reports why it returned. Run may
// be called repeatedly with increasing horizons to continue a simulation.
func (w *World) Run(until vclock.Time) Outcome {
	defer w.flushProbe()
	w.stopped = false
	w.horizon = until
	// A fresh Run gets a fresh verdict: without this, a run that ends
	// OutcomeHorizon after an earlier OutcomeDeadlock would still report
	// the stale deadlocked set from Deadlocked().
	w.deadlocked = nil
	for {
		w.settle()
		if w.stopped {
			return OutcomeStopped
		}
		next := w.evq.NextTime()
		if next == vclock.Never {
			// Nothing scheduled: either everyone exited or the rest are
			// blocked forever.
			w.deadlocked = w.blockedThreads()
			if len(w.deadlocked) == 0 {
				return OutcomeQuiescent
			}
			return OutcomeDeadlock
		}
		if next > until {
			w.clock = until
			return OutcomeHorizon
		}
		do, when, _ := w.evq.PopDo()
		if when < w.clock {
			panic(fmt.Sprintf("sim: clock would run backwards: %v -> %v", w.clock, when))
		}
		w.eventsProcessed++
		w.clock = when
		if do != nil {
			do()
		}
	}
}

// Deadlocked returns the threads that were blocked with no possible waker
// when Run last returned OutcomeDeadlock, or nil. The returned slice is
// the caller's to keep.
func (w *World) Deadlocked() []*Thread {
	if len(w.deadlocked) == 0 {
		return nil
	}
	out := make([]*Thread, len(w.deadlocked))
	copy(out, w.deadlocked)
	return out
}

// EventsProcessed returns the number of discrete events the driver loop
// has executed so far.
func (w *World) EventsProcessed() int64 { return w.eventsProcessed }

// ScheduleDecisions returns how many decision points have been offered to
// the scheduling policy (Config.Hooks.OnSchedule / Hooks.Policy) so far.
// It is always zero for the PCRPolicy value without a hook: decision
// points exist only where a consultation could have changed the schedule,
// so the count doubles as the length of a replayable decision trace.
func (w *World) ScheduleDecisions() int64 { return w.schedSeq }

// flushProbe forwards the not-yet-reported event and clock deltas to the
// configured probe (if any). Called every time Run returns.
func (w *World) flushProbe() {
	if w.cfg.Hooks.Probe == nil {
		return
	}
	w.cfg.Hooks.Probe.add(w.eventsProcessed-w.probeSentEvents, w.clock.Sub(w.probeSentClock))
	w.probeSentEvents = w.eventsProcessed
	w.probeSentClock = w.clock
}

func (w *World) blockedThreads() []*Thread {
	var out []*Thread
	for _, t := range w.threads {
		if t.state == StateBlocked {
			out = append(out, t)
		}
	}
	return out
}

// DumpState writes a human-readable snapshot of every live thread — its
// state, priority and block reason — plus the run queue and CPUs, to out.
// It is the tool to reach for when Run returns OutcomeDeadlock.
func (w *World) DumpState(out io.Writer) {
	fmt.Fprintf(out, "world at %s: %d live thread(s), %d runnable\n", w.clock, w.liveCount, w.runnableCount())
	for i, c := range w.cpus {
		cur := "idle"
		if c.current != nil {
			cur = c.current.String()
		}
		boost := ""
		if c.boost != nil {
			boost = fmt.Sprintf(" boost=%s until %s", c.boost.name, c.boostEnd)
		}
		fmt.Fprintf(out, "  cpu%d: %s%s\n", i, cur, boost)
	}
	for _, t := range w.threads {
		if t.state == StateDead {
			continue
		}
		extra := ""
		if t.state == StateBlocked {
			deadline := "forever"
			if t.wakeTimer.Valid() {
				deadline = "timed"
			}
			extra = fmt.Sprintf(" blocked-on=%s since %s (%s)",
				BlockReasonName(t.blockReason), t.blockSince, deadline)
		}
		fmt.Fprintf(out, "  %s%s\n", t, extra)
	}
}

// Shutdown terminates every unfinished thread: each is resumed once with
// its killed flag set, so it panics with killSignal at its park (or at
// its first dispatch), unwinds through the body's deferred calls, and
// its coroutine goes back to the idle list for the next world. A
// stackless thread has nothing to unwind and is just marked finished.
// After Shutdown the world must not be used again. Tests use it so that
// no goroutine stays parked in a dead world; experiments that simply let
// the process exit may skip it.
func (w *World) Shutdown() {
	for _, t := range w.threads {
		if t.state == StateDead || t.finished {
			continue
		}
		t.killed = true
		w.resume(t)
		t.state = StateDead
	}
}

// makeRunnable moves t to the run queue. by is the thread responsible for
// the wakeup (nil for timers and external events).
func (w *World) makeRunnable(t *Thread, by *Thread) {
	if t.state == StateRunnable || t.state == StateRunning {
		panic(fmt.Sprintf("sim: makeRunnable on %v thread %s", t.state, t.name))
	}
	t.state = StateRunnable
	w.pushReady(t, true)
	byID := int64(trace.NoThread)
	if by != nil {
		byID = int64(by.id)
	}
	w.record(trace.Event{Time: w.clock, Kind: trace.KindReady, Thread: t.id, Arg: byID})
}

// SetPriorityOf changes another thread's priority — the primitive under
// priority inheritance, the §6.2/§7 technique the paper left as future
// work ("we chose not to incur the implementation overhead of providing
// priority inheritance from blocked threads to threads holding locks...
// someone should investigate these techniques for interactive systems").
// Callable from thread or driver context; any needed preemption happens
// at the next scheduling point. Thread.SetPriority goes through here too.
// A queued thread is requeued at its new level; a running thread's level
// is refreshed in place, so it competes at the new level at once.
func (w *World) SetPriorityOf(t *Thread, p Priority) {
	if !p.valid() {
		panic(fmt.Sprintf("sim: invalid priority %d", p))
	}
	if p == t.pri {
		return
	}
	w.record(trace.Event{Time: w.clock, Kind: trace.KindSetPriority, Thread: t.id, Arg: int64(t.pri), Aux: int64(p)})
	if t.state == StateRunnable {
		w.removeReady(t)
		t.pri = p
		w.pushReady(t, false)
		return
	}
	t.pri = p
	if t.state == StateRunning {
		t.level = w.policyLevel(t, false)
	}
}

// NotifyDropped consults the Hooks.OnNotify fault hook for a NOTIFY on
// the named condition variable and reports whether the notification
// should be swallowed. Package monitor calls it on every NOTIFY; with no
// hook configured it is always false.
func (w *World) NotifyDropped(cv string) bool {
	return w.cfg.Hooks.OnNotify != nil && w.cfg.Hooks.OnNotify(cv)
}

// KillThread injects an uncaught error into t: the next time t would run
// it panics with v instead, dying exactly as if its own body had raised v
// (§5.5 crashes; JOIN and task rejuvenation observe a PanicError). A
// blocked victim is woken to receive the error. Call from driver context
// (an At callback); a nil v is replaced with a generic crash value.
// Returns false if t is already dead. Unlike Shutdown's teardown, the
// panic unwinds as an application error, so rejuvenation wrappers catch
// it and monitor queues the victim was waiting on are cleaned up.
func (w *World) KillThread(t *Thread, v any) bool {
	if t.state == StateDead || t.finished {
		return false
	}
	if v == nil {
		v = fmt.Sprintf("thread %q killed by fault injection", t.name)
	}
	t.injected = v
	t.hasInjected = true
	if t.state == StateBlocked {
		w.WakeIfBlocked(t, nil)
	}
	return true
}

// SetMaxThreads changes the world's live-thread bound at runtime — the
// primitive under the fault layer's ForkExhaustion window (§5.4). n <= 0
// removes the bound. Raising or removing the bound admits as many waiting
// FORKs as the new bound allows. Call from driver context.
func (w *World) SetMaxThreads(n int) {
	if n < 0 {
		n = 0
	}
	if n == w.cfg.MaxThreads {
		return
	}
	w.cfg.MaxThreads = n
	free := len(w.forkWaiters)
	if n > 0 {
		free = n - w.liveCount
	}
	// Each admitted waiter re-checks the bound in its FORK loop, so
	// over-admission is safe; under-admission would strand a waiter.
	for free > 0 && len(w.forkWaiters) > 0 {
		t := w.forkWaiters[0]
		w.forkWaiters = w.forkWaiters[1:]
		w.WakeIfBlocked(t, nil)
		free--
	}
}

// RegisterAuditor forwards a post-run audit closure to the world's probe,
// if any. Package monitor registers one per monitor when the monitor's
// first condition variable is created, so harnesses can sweep every CV
// an experiment created for the §5.3 masked-missing-NOTIFY signature
// after the run completes (Probe.Audit); a monitor without CVs has
// nothing to report and registers nothing. With no probe configured the
// registration is dropped.
func (w *World) RegisterAuditor(f func(minWaits int) []string) {
	if w.cfg.Hooks.Probe != nil {
		w.cfg.Hooks.Probe.registerAuditor(f)
	}
}

// WakeIfBlocked makes t runnable if it is currently blocked, and reports
// whether it did so. It is the low-level wake primitive used by package
// monitor; by attributes the wake in the trace. A pending block timeout
// is cancelled.
func (w *World) WakeIfBlocked(t *Thread, by *Thread) bool {
	if t.state != StateBlocked {
		return false
	}
	if t.wakeTimer.Valid() {
		w.evq.Cancel(t.wakeTimer)
		t.wakeTimer = eventq.Handle{}
	}
	w.makeRunnable(t, by)
	return true
}

// runnableCount returns the number of threads in the run queue.
func (w *World) runnableCount() int { return w.readyCount }

// pushReady enqueues t at the tail of the ready level the scheduling
// policy assigns it (its own priority under pcr-rr). wake distinguishes a
// fresh wakeup (blocked/new → runnable) from a preemption or yield
// requeue; policies like mlfq treat the two differently.
func (w *World) pushReady(t *Thread, wake bool) {
	t.level = w.policyLevel(t, wake)
	w.pushReadyAt(t, t.level)
}

// policyLevel asks the policy for t's ready level, falling back to the
// thread's priority on an invalid answer.
func (w *World) policyLevel(t *Thread, wake bool) Priority {
	if p := w.policy.Level(t, wake, w.clock); p.valid() {
		return p
	}
	return t.pri
}

// pushReadyAt appends t to the tail of level p's ready FIFO and marks
// the level occupied. t.level must already equal p.
func (w *World) pushReadyAt(t *Thread, p Priority) {
	t.qnext = nil
	t.qprev = w.readyTail[p]
	if w.readyTail[p] != nil {
		w.readyTail[p].qnext = t
	} else {
		w.readyHead[p] = t
		w.readyMask |= 1 << uint(p)
	}
	w.readyTail[p] = t
	w.readyCount++
}

// removeReady unlinks t from its level's ready FIFO. It panics if t is
// not queued, which would indicate state corruption.
func (w *World) removeReady(t *Thread) {
	p := t.level
	if t.qprev == nil && w.readyHead[p] != t {
		panic(fmt.Sprintf("sim: thread %s not on run queue", t.name))
	}
	if t.qprev != nil {
		t.qprev.qnext = t.qnext
	} else {
		w.readyHead[p] = t.qnext
	}
	if t.qnext != nil {
		t.qnext.qprev = t.qprev
	} else {
		w.readyTail[p] = t.qprev
	}
	t.qnext, t.qprev = nil, nil
	if w.readyHead[p] == nil {
		w.readyMask &^= 1 << uint(p)
	}
	w.readyCount--
}

// topRunnable returns the head of the highest non-empty priority queue in
// O(1) via the occupancy bitmap.
func (w *World) topRunnable() *Thread {
	if w.readyMask == 0 {
		return nil
	}
	return w.readyHead[bits.Len32(w.readyMask)-1]
}

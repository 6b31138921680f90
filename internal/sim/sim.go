// Package sim is a deterministic discrete-event simulator of the PCR
// (Portable Common Runtime) thread system described in "Using Threads in
// Interactive Systems: A Case Study" (Hauser et al., SOSP '93).
//
// It provides the thread model of §2 of the paper: multiple lightweight,
// pre-emptively scheduled threads sharing an address space, FORK/JOIN/
// DETACH, seven strict priorities with round-robin within a priority, a
// 50 ms default scheduling quantum, preemption when a higher-priority
// thread becomes runnable, YIELD, the paper's YieldButNotToMe and directed
// yield, and the high-priority SystemDaemon that donates random timeslices
// to overcome stable priority inversions (§6.2).
//
// A simulated thread takes one of two forms. A Proc body runs on a
// runtime coroutine (iter.Pull): the driver loop switches directly into
// the thread and the thread switches straight back when it parks, so
// exactly one of them runs at a time and no switch goes through the Go
// scheduler. A Stepper body (World.SpawnStep) is stackless: the driver
// calls its Step on its own stack at each dispatch, and the step parks
// by arming a Compute, Block or BlockIO and returning. It suits the
// large populations of flat wait-serve loops (the §4 general pump's
// session threads), which then cost no coroutine and no stack. Both
// forms produce identical traces. All time is virtual (package vclock),
// so every run is exactly reproducible and the instrumentation has true
// microsecond resolution, like the instrumented PCR the paper's authors
// built.
//
// A thread's body interacts with the world only through its *Thread
// handle: Compute consumes virtual CPU, Sleep blocks for virtual time,
// Fork/Join create and reap children, and package monitor supplies Mesa
// monitors and condition variables on top of the Block/Wake primitives.
// Bodies must reach a sim call on every code path of every loop;
// a body that spins without one would hang the (real) driver.
package sim

import (
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Priority is a PCR thread priority. There are 7 priorities; higher values
// run first. The default is the middle priority, 4. By convention (paper
// §2, §3) lower priorities are used for long-running background work and
// higher priorities for device- and UI-related threads.
type Priority int

// The priority levels of PCR, as used by Cedar and GVX.
const (
	PriorityMin        Priority = 1
	PriorityBackground Priority = 2
	PriorityLow        Priority = 3
	PriorityNormal     Priority = 4 // the default
	PriorityHigh       Priority = 5
	PriorityDaemon     Priority = 6 // SystemDaemon, GC daemon
	PriorityInterrupt  Priority = 7
	NumPriorities               = 7
)

func (p Priority) valid() bool { return p >= PriorityMin && p <= PriorityInterrupt }

// Valid reports whether p is one of the seven PCR priorities.
func (p Priority) Valid() bool { return p.valid() }

// State is a thread's lifecycle state.
type State int

// Thread states.
const (
	StateNew State = iota
	StateRunnable
	StateRunning
	StateBlocked
	StateDead
)

var stateNames = [...]string{"new", "runnable", "running", "blocked", "dead"}

// String returns the lowercase name of s.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "invalid"
}

// Proc is a thread body. Its return value is delivered to JOIN. The
// thread handle gives the body access to all thread operations.
type Proc func(t *Thread) any

// Stepper is the body of a stackless thread (World.SpawnStep). The
// driver calls Step on its own stack at every dispatch of the thread,
// and each step runs from where the previous one parked to the next
// park. A step parks by calling Compute, Block or BlockIO, which in a
// step arm the park and return at once, and then returning true;
// Thread.Parked tells whether a call armed one (a Compute may finish in
// place). Returning false ends the body, like a Proc returning nil. A
// step parks at most once, keeps in its receiver whatever it needs
// across parks, and may not call what must resume its caller mid-call:
// Yield and its variants, Fork, Join, Sleep, BlockTimed, SetPriority,
// or anything built on them, monitors included. A panic in a step kills
// the thread with a PanicError.
type Stepper interface {
	Step(t *Thread) (parked bool)
}

// Config parameterizes a World. The zero value is usable; Defaults fills
// in the paper's PCR operating point.
type Config struct {
	// CPUs is the number of simulated processors. Default 1: the paper
	// emphasizes the uniprocessor heritage of Cedar and GVX.
	CPUs int

	// Quantum is the scheduling timeslice. PCR's was 50 ms, a value §6.3
	// shows is "not to be taken lightly".
	Quantum vclock.Duration

	// SwitchCost is charged each time a CPU switches between different
	// threads ("less than 50 microseconds ... on a SPARCstation-2").
	// Zero selects the 50 µs default; a negative value disables the
	// charge entirely (useful in tests that assert exact timings).
	SwitchCost vclock.Duration

	// TimeoutGranularity rounds up CV timeouts and sleeps, modeling the
	// 50 ms CV-timeout granularity of PCR.
	TimeoutGranularity vclock.Duration

	// MaxThreads, when positive, bounds the number of live threads. A
	// FORK past the bound waits for resources, the "more recent"
	// behavior of §5.4 (earlier PCRs raised an error instead).
	MaxThreads int

	// Trace receives every thread event. Nil means discard.
	Trace trace.Sink

	// Hooks bundles the world's observe-and-fault seams: the Probe
	// counters plus every On* callback. The zero value (all nil) is the
	// default and leaves the world byte-identical to an unhooked one.
	Hooks Hooks

	// Seed seeds the world's deterministic RNG (SystemDaemon victim
	// choice and workload jitter).
	Seed int64

	// SystemDaemon enables the priority-6 sleeper that "regularly wakes
	// up and donates, using a directed yield, a small timeslice to
	// another thread chosen at random" (§6.2).
	SystemDaemon bool

	// SystemDaemonPeriod is how often the daemon wakes. Default 100 ms.
	SystemDaemonPeriod vclock.Duration

	// SystemDaemonSlice is the donated timeslice. Default 5 ms.
	SystemDaemonSlice vclock.Duration
}

// Hooks is Config's observability-and-fault surface, one nested struct
// instead of loose Config fields so callers can pass a whole seam set
// (probe + fault hooks + schedule hook + sink attachment) through
// intermediate layers in a single value.
//
// The hooks divide into two semantic classes:
//
//   - Observe-only hooks — Probe, OnFork, OnWorld — must never change
//     the simulation: a world runs byte-identically with or without
//     them, which is what lets the experiment harness attach per-run
//     metrics and profiles without invalidating golden outputs.
//
//   - Fault/steer hooks — OnNotify, OnCompute, OnSchedule — are allowed
//     to change what the simulation does, but only within the model's
//     legal envelope (drop a NOTIFY, stretch a Compute, pick another
//     equal-priority thread). They are how packages fault and explore
//     perturb a run on purpose.
//
// Every field defaults to nil and a nil hook is never called, so the
// zero Hooks is byte-identical to a world built before the seams
// existed.
type Hooks struct {
	// Probe, when non-nil, accumulates coarse observability counters
	// (worlds created, driver events processed, virtual time simulated)
	// across every world configured with it. Unlike Config.Trace it is
	// safe to share between worlds running on different goroutines; the
	// experiment harness uses one Probe per experiment run. Observe-only.
	Probe *Probe

	// OnWorld, when non-nil, is consulted once per world at the end of
	// NewWorld, before any thread — the SystemDaemon included — exists.
	// A non-nil returned sink is attached alongside Config.Trace (via
	// trace.Tee) for the world's whole lifetime, which is how the
	// experiment harness hangs a per-world profiler on every world a run
	// creates, wherever in the stack it is built. Observe-only: the
	// returned sink sees every event but must not call into the world
	// while recording.
	OnWorld func(w *World) trace.Sink

	// OnNotify, when non-nil, is consulted before every NOTIFY (thread or
	// driver context) on a condition variable; cv is the CV's debug name.
	// Returning true swallows the notification — no waiter wakes, no
	// stats or trace records are made — modeling the deleted-NOTIFY bugs
	// of §5.3 that timeouts then paper over. Package monitor honors the
	// hook; it does not apply to BROADCAST. Fault hook.
	OnNotify func(cv string) (drop bool)

	// OnFork, when non-nil, observes every thread creation (Spawn, FORK,
	// TryFork) after the child exists; parent is nil for Spawn. It must
	// not call into the world. Observe-only.
	OnFork func(parent, child *Thread)

	// OnCompute, when non-nil, maps every Compute demand to the duration
	// actually charged, enabling seeded clock jitter and induced stalls
	// (§6.2) without touching workload code. Returning d unchanged is a
	// no-op; non-positive results skip the Compute entirely. Fault hook.
	OnCompute func(t *Thread, d vclock.Duration) vclock.Duration

	// OnSchedule, when non-nil, is consulted at every scheduling decision
	// point where more than one dispatch choice is legal: installing a
	// thread on a CPU when several threads of the winning priority are
	// ready, and end-of-quantum round-robin rotation. The hook returns an
	// index into Decision.Candidates; 0 (or any out-of-range value)
	// selects Candidates[0], the schedule the simulator would have chosen
	// on its own. Because every candidate has the same priority as the
	// default pick, any schedule the hook produces is one legal PCR
	// execution — strict-priority dispatch is preserved by construction.
	// Package explore drives this seam to enumerate interleavings; a nil
	// hook leaves the scheduler byte-identical to one built before the
	// seam existed. Steering hook.
	OnSchedule func(d Decision) int

	// Policy, when non-nil, replaces the built-in pcr-rr dispatch
	// discipline (see the Policy interface and package sched); nil
	// selects PCRPolicy. When both Policy and OnSchedule are set, the
	// hook is layered over the policy as an adapter: the hook sees every
	// decision first and defers to the policy on 0/out-of-range answers,
	// so explore can steer any policy's schedule. A Policy instance may
	// hold per-thread state and must not be shared between worlds.
	// Steering hook.
	Policy Policy
}

// Decision is one scheduling decision point offered to Config.OnSchedule.
// Seq numbers decision points 0,1,2,... in the order the driver reaches
// them; for a fixed world configuration and hook behavior the sequence is
// fully deterministic, which is what makes a recorded decision trace
// replayable.
type Decision struct {
	// Seq is the world-wide decision-point sequence number.
	Seq int64
	// CPU is the index of the CPU being dispatched.
	CPU int
	// Now is the virtual time of the decision point.
	Now vclock.Time
	// Candidates are the legal picks, all on the same ready-queue level
	// (the same priority under the default pcr-rr policy); Candidates[0]
	// is the default (the choice an unhooked scheduler makes). The slice
	// is reused between calls — hooks must not retain it.
	Candidates []*Thread
}

// Defaults returns cfg with unset fields replaced by the paper's PCR
// operating point.
func (cfg Config) Defaults() Config {
	if cfg.CPUs <= 0 {
		cfg.CPUs = 1
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 50 * vclock.Millisecond
	}
	if cfg.SwitchCost < 0 {
		cfg.SwitchCost = 0
	} else if cfg.SwitchCost == 0 {
		cfg.SwitchCost = 50 * vclock.Microsecond
	}
	if cfg.TimeoutGranularity <= 0 {
		cfg.TimeoutGranularity = 50 * vclock.Millisecond
	}
	if cfg.Trace == nil {
		cfg.Trace = trace.Discard
	}
	if cfg.SystemDaemonPeriod <= 0 {
		cfg.SystemDaemonPeriod = 100 * vclock.Millisecond
	}
	if cfg.SystemDaemonSlice <= 0 {
		cfg.SystemDaemonSlice = 5 * vclock.Millisecond
	}
	return cfg
}

// Block reasons, re-exported from package trace for callers of Block and
// BlockTimed.
const (
	BlockMutex = trace.BlockMutex
	BlockCV    = trace.BlockCV
	BlockJoin  = trace.BlockJoin
	BlockSleep = trace.BlockSleep
	BlockFork  = trace.BlockFork
)

var blockReasonNames = [...]string{
	BlockMutex: "mutex",
	BlockCV:    "cv",
	BlockJoin:  "join",
	BlockSleep: "sleep",
	BlockFork:  "fork",
}

// BlockReasonName returns the lowercase name of a Block* reason, or
// "unknown" for values outside the known set. DumpState and the fault
// watchdog's state dumps use it.
func BlockReasonName(r int) string {
	if r >= 0 && r < len(blockReasonNames) {
		return blockReasonNames[r]
	}
	return "unknown"
}

// Outcome says why Run returned.
type Outcome int

// Run outcomes.
const (
	// OutcomeHorizon: the time horizon was reached with activity pending.
	OutcomeHorizon Outcome = iota
	// OutcomeQuiescent: no events and no runnable threads remain, and no
	// thread is blocked (every thread exited).
	OutcomeQuiescent
	// OutcomeDeadlock: no events and no runnable threads remain but
	// blocked threads exist — they can never be woken.
	OutcomeDeadlock
	// OutcomeStopped: Stop was called.
	OutcomeStopped
)

var outcomeNames = [...]string{"horizon", "quiescent", "deadlock", "stopped"}

// String returns the lowercase name of o.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "invalid"
}

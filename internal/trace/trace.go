// Package trace defines the microsecond-resolution thread-event records
// produced by the simulator, mirroring the instrumented PCR the paper's
// authors built: forks, yields, scheduler switches, monitor-lock entries
// and condition-variable waits, each stamped in virtual microseconds.
//
// Traces flow through the Sink interface so that experiments can choose
// between full in-memory capture (Buffer), cheap online aggregation (the
// stats and profile packages implement Sink), or any combination (Tee).
// WriteTrace and ReadTrace encode and decode a captured trace.
package trace

import (
	"errors"

	"repro/internal/vclock"
)

// Kind identifies the type of a thread event.
type Kind uint8

// Event kinds. The Arg/Aux fields of Event are interpreted per kind.
const (
	// KindFork: thread Thread forked a child; Arg = child thread ID,
	// Aux = child priority.
	KindFork Kind = iota
	// KindExit: thread Thread terminated; Arg = 1 if it was detached.
	KindExit
	// KindJoin: thread Thread completed a JOIN on thread Arg.
	KindJoin
	// KindSwitch: the scheduler switched CPU Aux from thread Arg to
	// thread Thread. Thread or Arg is NoThread when the CPU was or
	// becomes idle.
	KindSwitch
	// KindMLEnter: thread Thread entered monitor Arg; Aux = 1 if the
	// entry contended (the thread had to queue for the mutex).
	KindMLEnter
	// KindMLExit: thread Thread exited monitor Arg.
	KindMLExit
	// KindWait: thread Thread began a WAIT on condition variable Arg
	// (monitor implicit); Aux = timeout in microseconds, or -1 for none.
	KindWait
	// KindWaitDone: thread Thread's WAIT on CV Arg completed;
	// Aux = 1 if it timed out rather than being notified.
	KindWaitDone
	// KindNotify: thread Thread notified CV Arg; Aux = number of
	// waiters woken (0 or 1).
	KindNotify
	// KindBroadcast: thread Thread broadcast CV Arg; Aux = waiters woken.
	KindBroadcast
	// KindYield: thread Thread yielded; Aux distinguishes the yield
	// flavor (see YieldPlain and friends), Arg = directed-yield target
	// or NoThread.
	KindYield
	// KindSetPriority: thread Thread changed priority; Arg = old,
	// Aux = new.
	KindSetPriority
	// KindSleep: thread Thread began a timed sleep of Aux microseconds.
	KindSleep
	// KindReady: thread Thread entered the ready queue; Arg = thread
	// responsible (NoThread for timer wakeups, the preemptor for a
	// preemption re-queue, the thread itself for a yield re-queue).
	KindReady
	// KindBlock: thread Thread blocked; Aux = block reason (see Block*).
	KindBlock
	numKinds
)

// Yield flavors carried in Event.Aux for KindYield.
const (
	YieldPlain      = 0 // YIELD: reschedule, caller remains eligible
	YieldButNotToMe = 1 // cede to highest-priority ready thread other than caller
	YieldDirected   = 2 // donate the rest of the slice to a specific thread
)

// Block reasons carried in Event.Aux for KindBlock.
const (
	BlockMutex = 0 // waiting for a monitor lock
	BlockCV    = 1 // waiting on a condition variable
	BlockJoin  = 2 // waiting in JOIN
	BlockSleep = 3 // timed sleep
	BlockFork  = 4 // waiting in FORK for thread resources (paper §5.4)
)

// NoThread is the Arg/Thread value meaning "no thread" (e.g. the idle side
// of a switch).
const NoThread = -1

var kindNames = [numKinds]string{
	"fork", "exit", "join", "switch", "ml-enter", "ml-exit",
	"wait", "wait-done", "notify", "broadcast", "yield",
	"set-priority", "sleep", "ready", "block",
}

// String returns a short lowercase name for k.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one timestamped thread event. Events are small value types;
// a trace is a []Event.
type Event struct {
	Time   vclock.Time
	Kind   Kind
	Thread int32 // acting thread ID, or NoThread
	Arg    int64 // kind-specific, see Kind docs
	Aux    int64 // kind-specific, see Kind docs
}

// Sink receives events as the simulation produces them.
//
// Flush pushes any buffered state to the sink's final destination and
// reports the first error that has prevented events from reaching it.
// Purely in-memory sinks (Buffer, the stats collectors, the profiler)
// have nothing to push and always return nil; a sink that writes
// somewhere surfaces its write errors here rather than silently dropping
// events, because Record has no error channel of its own. Flush must be
// safe to call more than once.
type Sink interface {
	Record(Event)
	Flush() error
}

// SinkFunc adapts a function to the Sink interface. The adapted sink
// buffers nothing, so Flush always succeeds.
type SinkFunc func(Event)

// Record implements Sink.
func (f SinkFunc) Record(ev Event) { f(ev) }

// Flush implements Sink; it is a no-op.
func (f SinkFunc) Flush() error { return nil }

// Discard is a Sink that drops all events. Its dynamic type is a
// comparable struct (not a SinkFunc), so holders of a Sink may test
// `sink == Discard` to skip event construction entirely — the simulator's
// allocation-free tracing fast path depends on this.
var Discard Sink = discardSink{}

type discardSink struct{}

// Record implements Sink; it drops the event.
func (discardSink) Record(Event) {}

// Flush implements Sink; it is a no-op.
func (discardSink) Flush() error { return nil }

// Buffer is a Sink that retains every event in order. The zero value is
// ready to use.
type Buffer struct {
	Events []Event
}

// Record implements Sink.
func (b *Buffer) Record(ev Event) { b.Events = append(b.Events, ev) }

// Flush implements Sink; the buffer holds events in memory, so there is
// nothing to push.
func (b *Buffer) Flush() error { return nil }

// Len returns the number of captured events.
func (b *Buffer) Len() int { return len(b.Events) }

// Reset discards captured events but keeps capacity.
func (b *Buffer) Reset() { b.Events = b.Events[:0] }

// Tee returns a Sink that forwards each event to all of sinks. Its
// Flush flushes every branch and aggregates the errors (errors.Join),
// so one failing file sink cannot mask another.
//
// Discard branches are dropped and nested tees flattened at
// construction, so Tee(Discard, s) returns s itself: the per-event
// fan-out loop — measurable on profiled benchmark runs, where every
// world records millions of events into a single profiler sink — is
// paid only when there are really two or more observers.
func Tee(sinks ...Sink) Sink {
	// Copy to guard against caller mutation of the slice.
	s := make(teeSink, 0, len(sinks))
	for _, sink := range sinks {
		if sink == Discard {
			continue
		}
		if t, ok := sink.(teeSink); ok {
			s = append(s, t...)
			continue
		}
		s = append(s, sink)
	}
	switch len(s) {
	case 0:
		return Discard
	case 1:
		return s[0]
	}
	return s
}

type teeSink []Sink

// Record implements Sink.
func (t teeSink) Record(ev Event) {
	for _, sink := range t {
		sink.Record(ev)
	}
}

// Flush implements Sink: every branch is flushed even when an earlier
// one fails, and all failures are reported.
func (t teeSink) Flush() error {
	var errs []error
	for _, sink := range t {
		if err := sink.Flush(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

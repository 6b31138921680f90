package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// decoratorsMade counts every counting or timing wrapper ever built. The
// untraced run checks that it does not move: end-to-end numbers must be
// taken on the program exactly as users run it.
var decoratorsMade atomic.Int64

// decorators is one traced iteration's instrumentation: counting and
// timing wrappers around every observing trace sink and every non-default
// scheduling policy, a thread counter, the worlds the iteration built,
// and the marks that split set-up time into world construction and
// population.
//
// The wrappers never touch trace.Discard or sim.PCRPolicy: the simulator
// recognizes both by identity and keeps its fast paths for them, so
// wrapping either would measure a different program.
type decorators struct {
	mu       sync.Mutex
	sinks    []*countingSink
	policies []*timedPolicy
	worlds   []*sim.World

	threads atomic.Int64

	// Set-up split. Worlds are built on one goroutine, so these need no
	// lock; inSetup is cleared before any world runs.
	inSetup  bool
	mark     time.Time
	worldNew time.Duration
}

// beginSetup starts the world-construction/population split at now.
func (d *decorators) beginSetup(now time.Time) {
	d.inSetup, d.mark, d.worldNew = true, now, 0
}

// endSetup closes the split and returns the time spent constructing
// worlds: from the end of the previous world's last spawn (or the start
// of set-up) until NewWorld hands the world to OnWorld. Everything else
// in set-up — daemons, populations, session pools — is population.
func (d *decorators) endSetup() time.Duration {
	d.inSetup = false
	return d.worldNew
}

// instrument adds the thread counter and world recorder to h and wraps
// the sink its OnWorld returns, if any.
func (d *decorators) instrument(h *sim.Hooks) {
	inner := h.OnWorld
	h.OnWorld = func(w *sim.World) trace.Sink {
		if d.inSetup {
			d.worldNew += time.Since(d.mark)
		}
		d.mu.Lock()
		d.worlds = append(d.worlds, w)
		d.mu.Unlock()
		if inner == nil {
			return nil
		}
		return d.wrapSink(inner(w))
	}
	h.OnFork = func(parent, child *sim.Thread) {
		d.threads.Add(1)
		if d.inSetup {
			d.mark = time.Now()
		}
	}
}

// wrapSink returns s behind a counting, timing decorator. Nil and
// trace.Discard come back unchanged.
func (d *decorators) wrapSink(s trace.Sink) trace.Sink {
	if s == nil || s == trace.Discard {
		return s
	}
	cs := &countingSink{inner: s}
	decoratorsMade.Add(1)
	d.mu.Lock()
	d.sinks = append(d.sinks, cs)
	d.mu.Unlock()
	return cs
}

// wrapPolicy returns p behind a counting, timing decorator. Nil and
// sim.PCRPolicy come back unchanged.
func (d *decorators) wrapPolicy(p sim.Policy) sim.Policy {
	if p == nil || p == sim.PCRPolicy {
		return p
	}
	tp := &timedPolicy{inner: p}
	decoratorsMade.Add(1)
	d.mu.Lock()
	d.policies = append(d.policies, tp)
	d.mu.Unlock()
	return tp
}

// decoratorTotals is what one traced iteration's wrappers observed.
type decoratorTotals struct {
	records   int64
	recordNS  int64
	calls     int64
	callNS    int64
	threads   int64
	decisions int64
}

// totals sums every wrapper. Call only after the worlds have stopped.
func (d *decorators) totals() decoratorTotals {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := decoratorTotals{threads: d.threads.Load()}
	for _, s := range d.sinks {
		t.records += s.sw.calls
		t.recordNS += s.sw.estimateNS()
	}
	for _, p := range d.policies {
		t.calls += p.sw.calls
		t.callNS += p.sw.estimateNS()
	}
	for _, w := range d.worlds {
		t.decisions += w.ScheduleDecisions()
	}
	return t
}

// timeStride is how often the wrappers read the clock: every 64th call.
// Timing every call would double the cost of a sink that records a
// million events per iteration; the estimate scales the timed calls up to
// all of them.
const timeStride = 64

// stopwatch counts every call of a wrapped method and times every
// timeStride-th one.
type stopwatch struct {
	calls, timed, ns int64
}

func (s *stopwatch) start() (t0 time.Time, on bool) {
	s.calls++
	if s.calls%timeStride != 1 {
		return t0, false
	}
	return time.Now(), true
}

func (s *stopwatch) stop(t0 time.Time, on bool) {
	if on {
		s.ns += int64(time.Since(t0))
		s.timed++
	}
}

// estimateNS extrapolates the timed calls to every call.
func (s *stopwatch) estimateNS() int64 {
	if s.timed == 0 {
		return 0
	}
	return s.ns * s.calls / s.timed
}

// countingSink counts and times every event delivered to one world's
// sink. Each world records from one goroutine at a time and each world
// gets its own wrapper, so the counters need no synchronization.
type countingSink struct {
	inner trace.Sink
	sw    stopwatch
}

func (s *countingSink) Record(ev trace.Event) {
	t0, on := s.sw.start()
	s.inner.Record(ev)
	s.sw.stop(t0, on)
}

func (s *countingSink) Flush() error { return s.inner.Flush() }

// timedPolicy counts and times every consultation of one world's policy.
// Policies are per world, so the counters need no synchronization.
type timedPolicy struct {
	inner sim.Policy
	sw    stopwatch
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Level(t *sim.Thread, wake bool, now vclock.Time) sim.Priority {
	t0, on := p.sw.start()
	defer p.sw.stop(t0, on)
	return p.inner.Level(t, wake, now)
}

func (p *timedPolicy) Pick(d sim.Decision) int {
	t0, on := p.sw.start()
	defer p.sw.stop(t0, on)
	return p.inner.Pick(d)
}

func (p *timedPolicy) Rotate(d sim.Decision) int {
	t0, on := p.sw.start()
	defer p.sw.stop(t0, on)
	return p.inner.Rotate(d)
}

func (p *timedPolicy) Quantum(t *sim.Thread, def vclock.Duration) vclock.Duration {
	t0, on := p.sw.start()
	defer p.sw.stop(t0, on)
	return p.inner.Quantum(t, def)
}

func (p *timedPolicy) Expired(t *sim.Thread, now vclock.Time) {
	t0, on := p.sw.start()
	defer p.sw.stop(t0, on)
	p.inner.Expired(t, now)
}

func (p *timedPolicy) Age(t *sim.Thread, now vclock.Time) (sim.Priority, bool) {
	t0, on := p.sw.start()
	defer p.sw.stop(t0, on)
	return p.inner.Age(t, now)
}

func (p *timedPolicy) Tick() vclock.Duration {
	t0, on := p.sw.start()
	defer p.sw.stop(t0, on)
	return p.inner.Tick()
}

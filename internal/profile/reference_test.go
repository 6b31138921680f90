package profile_test

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"

	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// refProfiler is the independent oracle for profile.Profiler. It
// replays an event stream with one per-thread state machine kept in
// maps: no dense lookup tables, no ready set, no hold list. Inversion is
// charged by scanning every thread at each interval. It writes the
// online profiler's accounting rules out once more in their plainest
// form, so a rewrite of the online profiler is checked against code that
// shares none of its data structures.
//
// refProfiler is a trace.Sink, so it can ride along a live world as
// well as replay a decoded trace.
type refProfiler struct {
	keepSpans bool

	now      vclock.Time
	threads  map[int32]*refThread
	order    []int32 // thread creation order
	cpus     []refCPU
	monitors map[int64]*profile.MonitorProfile
	cvs      map[int64]*profile.CVProfile
	holds    map[int64]refHold // monitor ID -> its live hold

	invOpen  bool
	invSince vclock.Time
	inv      profile.InversionProfile
	spans    []profile.Span
}

type refThread struct {
	profile.ThreadProfile
	state profile.State
	since vclock.Time
	cpu   int

	queued     bool // in a monitor mutex queue since queueSince
	queueSince vclock.Time
	waiting    bool // in a WAIT on waitCV since waitSince
	waitCV     int64
	waitSince  vclock.Time
}

type refCPU struct {
	occupant  int32
	idleSince vclock.Time
	idle      vclock.Duration
	switches  int64
}

type refHold struct {
	thread int32
	since  vclock.Time
}

// refBlockStates maps the trace's block reasons to profiler states; any
// other reason counts as sleep.
var refBlockStates = map[int64]profile.State{
	trace.BlockMutex: profile.StateMutex, trace.BlockCV: profile.StateCV,
	trace.BlockJoin: profile.StateJoin, trace.BlockSleep: profile.StateSleep,
	trace.BlockFork: profile.StateForkWait,
}

// Histogram bounds, restated: holds, queue waits and CV waits; and
// inversion episodes.
var (
	refLatencyBounds = []vclock.Duration{
		100 * vclock.Microsecond, vclock.Millisecond, 5 * vclock.Millisecond,
		10 * vclock.Millisecond, 50 * vclock.Millisecond, 100 * vclock.Millisecond,
		500 * vclock.Millisecond, vclock.Second,
	}
	refEpisodeBounds = []vclock.Duration{
		vclock.Millisecond, 5 * vclock.Millisecond, 10 * vclock.Millisecond,
		50 * vclock.Millisecond, 100 * vclock.Millisecond, 500 * vclock.Millisecond,
		vclock.Second,
	}
)

func newRefProfiler(cpus int, keepSpans bool) *refProfiler {
	r := &refProfiler{
		keepSpans: keepSpans,
		threads:   map[int32]*refThread{},
		monitors:  map[int64]*profile.MonitorProfile{},
		cvs:       map[int64]*profile.CVProfile{},
		holds:     map[int64]refHold{},
	}
	r.inv.Durations = stats.NewHistogram(refEpisodeBounds...)
	for i := 0; i < max(cpus, 1); i++ {
		r.cpus = append(r.cpus, refCPU{occupant: trace.NoThread})
	}
	return r
}

// replay runs events through a fresh reference profiler and finishes it
// at end.
func replay(events []trace.Event, cpus int, keepSpans bool, end vclock.Time) *profile.Profile {
	r := newRefProfiler(cpus, keepSpans)
	for _, ev := range events {
		r.Record(ev)
	}
	return r.finish(end)
}

func (r *refProfiler) Flush() error { return nil }

func (r *refProfiler) Record(ev trace.Event) {
	if ev.Time > r.now {
		r.charge(ev.Time)
	}
	switch ev.Kind {
	case trace.KindFork:
		r.thread(int32(ev.Arg), ev.Time).Priority = int(ev.Aux)
	case trace.KindReady:
		th := r.thread(ev.Thread, ev.Time)
		if th.state == profile.StateRunning && int64(ev.Thread) != ev.Arg {
			th.Preemptions++ // a yield re-queue names the thread itself
		}
		r.move(th, ev.Time, profile.StateReady)
	case trace.KindBlock:
		th := r.thread(ev.Thread, ev.Time)
		s, ok := refBlockStates[ev.Aux]
		if !ok {
			s = profile.StateSleep
		}
		if s == profile.StateMutex {
			th.queued, th.queueSince = true, ev.Time
		}
		r.move(th, ev.Time, s)
	case trace.KindSwitch:
		r.switchCPU(ev)
	case trace.KindExit:
		th := r.thread(ev.Thread, ev.Time)
		for id, h := range r.holds {
			if h.thread == ev.Thread {
				r.closeHold(id, ev.Time)
			}
		}
		th.queued, th.waiting = false, false
		r.move(th, ev.Time, profile.StateDead)
		th.Died = ev.Time
	case trace.KindSetPriority:
		r.thread(ev.Thread, ev.Time).Priority = int(ev.Aux)
	case trace.KindYield:
		r.thread(ev.Thread, ev.Time).Yields++
	case trace.KindMLEnter:
		th := r.thread(ev.Thread, ev.Time)
		m := r.monitor(ev.Arg)
		m.Enters++
		if ev.Aux == 1 {
			m.Contended++
		}
		if th.queued {
			d := ev.Time.Sub(th.queueSince)
			m.QueueWait.Add(d)
			m.MaxQueueWait = max(m.MaxQueueWait, d)
			th.queued = false
		}
		r.holds[ev.Arg] = refHold{thread: ev.Thread, since: ev.Time}
	case trace.KindMLExit:
		if h, ok := r.holds[ev.Arg]; ok && h.thread == ev.Thread {
			r.closeHold(ev.Arg, ev.Time)
		}
	case trace.KindWait:
		r.cv(ev.Arg)
		th := r.thread(ev.Thread, ev.Time)
		th.waiting, th.waitCV, th.waitSince = true, ev.Arg, ev.Time
	case trace.KindWaitDone:
		c := r.cv(ev.Arg)
		th := r.thread(ev.Thread, ev.Time)
		c.Waits++
		if ev.Aux == 1 {
			c.Timeouts++
		}
		if th.waiting && th.waitCV == ev.Arg {
			d := ev.Time.Sub(th.waitSince)
			c.Wait.Add(d)
			c.MaxWait = max(c.MaxWait, d)
			th.waiting = false
		}
	case trace.KindNotify, trace.KindBroadcast:
		c := r.cv(ev.Arg)
		c.Signals++
		c.Woken += ev.Aux
	}
}

// switchCPU installs ev.Thread (or idleness) on CPU ev.Aux. The
// outgoing occupant, if still running, goes back to ready.
func (r *refProfiler) switchCPU(ev trace.Event) {
	idx := int(ev.Aux)
	if idx < 0 || idx >= trace.MaxCPUs {
		return
	}
	for len(r.cpus) <= idx {
		r.cpus = append(r.cpus, refCPU{occupant: trace.NoThread})
	}
	c := &r.cpus[idx]
	if c.occupant == trace.NoThread {
		c.idle += ev.Time.Sub(c.idleSince)
	} else if th := r.threads[c.occupant]; th != nil && th.state == profile.StateRunning {
		r.move(th, ev.Time, profile.StateReady)
	}
	c.occupant = ev.Thread
	if ev.Thread == trace.NoThread {
		c.idleSince = ev.Time
		return
	}
	c.switches++
	th := r.thread(ev.Thread, ev.Time)
	th.cpu = idx
	th.Switches++
	r.move(th, ev.Time, profile.StateRunning)
}

// charge moves the clock to t, first charging the interval since the
// last event: every ready thread whose priority beats the lowest running
// priority, with every CPU busy, sits inverted for the whole interval.
func (r *refProfiler) charge(t vclock.Time) {
	dt := t.Sub(r.now)
	busy, lowest := len(r.cpus) > 0, math.MaxInt
	for _, c := range r.cpus {
		if c.occupant == trace.NoThread {
			busy = false
			break
		}
		if th := r.threads[c.occupant]; th != nil {
			lowest = min(lowest, th.Priority)
		}
	}
	inverted := false
	for _, th := range r.threads {
		if !busy {
			break
		}
		if th.state == profile.StateReady && th.Priority > lowest {
			th.InvertedReady += dt
			inverted = true
		}
	}
	switch {
	case inverted && !r.invOpen:
		r.invOpen, r.invSince = true, r.now
	case !inverted && r.invOpen:
		r.closeEpisode(r.now)
	}
	r.now = t
}

func (r *refProfiler) closeEpisode(end vclock.Time) {
	r.invOpen = false
	if d := end.Sub(r.invSince); d > 0 {
		r.inv.Episodes++
		r.inv.Total += d
		r.inv.Longest = max(r.inv.Longest, d)
		r.inv.Durations.Add(d)
	}
}

func (r *refProfiler) closeHold(monitor int64, t vclock.Time) {
	m := r.monitors[monitor]
	d := t.Sub(r.holds[monitor].since)
	m.Hold.Add(d)
	m.MaxHold = max(m.MaxHold, d)
	delete(r.holds, monitor)
}

// move ends th's current state interval at t and starts state s. A
// thread that stops running leaves its CPU idle: a yielder may be
// dispatched elsewhere with no record for the CPU it left.
func (r *refProfiler) move(th *refThread, t vclock.Time, s profile.State) {
	if th.state == s {
		return
	}
	r.closeInterval(th, t)
	if th.state == profile.StateRunning && r.cpus[th.cpu].occupant == th.ID {
		r.cpus[th.cpu].occupant, r.cpus[th.cpu].idleSince = trace.NoThread, t
	}
	th.state = s
}

// closeInterval charges th's current state from its start to t.
func (r *refProfiler) closeInterval(th *refThread, t vclock.Time) {
	d := t.Sub(th.since)
	th.Durations[th.state] += d
	if r.keepSpans && d > 0 && th.state != profile.StateDead {
		cpu := -1
		if th.state == profile.StateRunning {
			cpu = th.cpu
		}
		r.spans = append(r.spans, profile.Span{Thread: th.ID, State: th.state, CPU: cpu, From: th.since, To: t})
	}
	th.since = t
}

func (r *refProfiler) thread(id int32, t vclock.Time) *refThread {
	th := r.threads[id]
	if th == nil {
		th = &refThread{state: profile.StateNew, since: t, cpu: -1}
		th.ID, th.Born = id, t
		r.threads[id] = th
		r.order = append(r.order, id)
	}
	return th
}

func (r *refProfiler) monitor(id int64) *profile.MonitorProfile {
	m := r.monitors[id]
	if m == nil {
		m = &profile.MonitorProfile{ID: id,
			Hold: stats.NewHistogram(refLatencyBounds...), QueueWait: stats.NewHistogram(refLatencyBounds...)}
		r.monitors[id] = m
	}
	return m
}

func (r *refProfiler) cv(id int64) *profile.CVProfile {
	c := r.cvs[id]
	if c == nil {
		c = &profile.CVProfile{ID: id, Wait: stats.NewHistogram(refLatencyBounds...)}
		r.cvs[id] = c
	}
	return c
}

// finish closes every open interval at end (no earlier than the last
// event) and returns the profile.
func (r *refProfiler) finish(end vclock.Time) *profile.Profile {
	end = max(end, r.now)
	r.charge(end)
	if r.invOpen {
		r.closeEpisode(end)
	}
	p := &profile.Profile{CPUs: len(r.cpus), End: end, Inversion: r.inv}
	for _, id := range r.order {
		th := r.threads[id]
		r.closeInterval(th, end)
		if th.state != profile.StateDead {
			th.Died, th.Alive = end, true
		}
		p.Threads = append(p.Threads, &th.ThreadProfile)
	}
	for i := range r.cpus {
		c := &r.cpus[i]
		if c.occupant == trace.NoThread {
			c.idle += end.Sub(c.idleSince)
		}
		p.CPUIdle = append(p.CPUIdle, c.idle)
		p.CPUSwitches = append(p.CPUSwitches, c.switches)
	}
	for _, m := range r.monitors {
		p.Monitors = append(p.Monitors, m)
	}
	for _, c := range r.cvs {
		p.CVs = append(p.CVs, c)
	}
	slices.SortFunc(p.Monitors, func(a, b *profile.MonitorProfile) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortFunc(p.CVs, func(a, b *profile.CVProfile) int { return cmp.Compare(a.ID, b.ID) })
	p.Spans = r.spans
	return p
}

// orEmpty returns h, or, when h is nil, an empty histogram with like's
// bounds.
func orEmpty(h, like *stats.Histogram) *stats.Histogram {
	if h != nil {
		return h
	}
	bounds := make([]vclock.Duration, like.Buckets()-1)
	for i := range bounds {
		_, bounds[i], _ = like.BucketRange(i)
	}
	return stats.NewHistogram(bounds...)
}

// diffProfiles compares two profiles field by field, histograms bucket
// by bucket, and names every difference (up to a cap).
func diffProfiles(got, want *profile.Profile) []string {
	var diffs []string
	add := func(format string, args ...any) {
		if len(diffs) < 20 {
			diffs = append(diffs, fmt.Sprintf(format, args...))
		}
	}
	hist := func(what string, g, w *stats.Histogram) {
		// A nil histogram is an empty one: the profiler leaves an
		// uncontended monitor's QueueWait nil.
		if g == nil && w == nil {
			return
		}
		g, w = orEmpty(g, w), orEmpty(w, g)
		if g.Buckets() != w.Buckets() {
			add("%s: %d buckets, want %d", what, g.Buckets(), w.Buckets())
			return
		}
		for i := 0; i < g.Buckets(); i++ {
			if g.BucketCount(i) != w.BucketCount(i) {
				add("%s bucket %d: count %d, want %d", what, i, g.BucketCount(i), w.BucketCount(i))
			}
		}
		if !reflect.DeepEqual(g, w) {
			add("%s: bucket totals differ (total %v, want %v)", what, g.Total(), w.Total())
		}
	}
	if got.CPUs != want.CPUs || got.Start != want.Start || got.End != want.End {
		add("CPUs/Start/End = %d/%v/%v, want %d/%v/%v", got.CPUs, got.Start, got.End, want.CPUs, want.Start, want.End)
	}
	if len(got.Threads) != len(want.Threads) {
		add("%d threads, want %d", len(got.Threads), len(want.Threads))
	}
	for i := 0; i < min(len(got.Threads), len(want.Threads)); i++ {
		if g, w := got.Threads[i], want.Threads[i]; *g != *w {
			add("thread #%d:\n   got  %+v\n   want %+v", i, *g, *w)
		}
	}
	if !slices.Equal(got.CPUIdle, want.CPUIdle) || !slices.Equal(got.CPUSwitches, want.CPUSwitches) {
		add("CPU idle/switches = %v/%v, want %v/%v", got.CPUIdle, got.CPUSwitches, want.CPUIdle, want.CPUSwitches)
	}
	if len(got.Monitors) != len(want.Monitors) {
		add("%d monitors, want %d", len(got.Monitors), len(want.Monitors))
	}
	for i := 0; i < min(len(got.Monitors), len(want.Monitors)); i++ {
		g, w := got.Monitors[i], want.Monitors[i]
		if g.ID != w.ID || g.Enters != w.Enters || g.Contended != w.Contended ||
			g.MaxHold != w.MaxHold || g.MaxQueueWait != w.MaxQueueWait {
			add("monitor #%d = %+v, want %+v", i, *g, *w)
		}
		hist(fmt.Sprintf("monitor %d hold", w.ID), g.Hold, w.Hold)
		hist(fmt.Sprintf("monitor %d queue wait", w.ID), g.QueueWait, w.QueueWait)
	}
	if len(got.CVs) != len(want.CVs) {
		add("%d CVs, want %d", len(got.CVs), len(want.CVs))
	}
	for i := 0; i < min(len(got.CVs), len(want.CVs)); i++ {
		g, w := got.CVs[i], want.CVs[i]
		if g.ID != w.ID || g.Waits != w.Waits || g.Timeouts != w.Timeouts ||
			g.Signals != w.Signals || g.Woken != w.Woken || g.MaxWait != w.MaxWait {
			add("CV #%d = %+v, want %+v", i, *g, *w)
		}
		hist(fmt.Sprintf("CV %d wait", w.ID), g.Wait, w.Wait)
	}
	gi, wi := got.Inversion, want.Inversion
	if gi.Episodes != wi.Episodes || gi.Total != wi.Total || gi.Longest != wi.Longest {
		add("inversion %d/%v/%v, want %d/%v/%v", gi.Episodes, gi.Total, gi.Longest, wi.Episodes, wi.Total, wi.Longest)
	}
	hist("inversion episodes", gi.Durations, wi.Durations)
	if len(got.Spans) != len(want.Spans) {
		add("%d spans, want %d", len(got.Spans), len(want.Spans))
	}
	for i := 0; i < min(len(got.Spans), len(want.Spans)); i++ {
		if got.Spans[i] != want.Spans[i] {
			add("span #%d = %+v, want %+v", i, got.Spans[i], want.Spans[i])
			break
		}
	}
	if !reflect.DeepEqual(got.Names, want.Names) {
		add("names differ: %d entries, want %d", len(got.Names), len(want.Names))
	}
	return diffs
}

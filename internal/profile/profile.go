// Package profile computes per-thread scheduler accounting from the
// simulator's event stream: the state timeline of every thread (running,
// ready, blocked on a monitor mutex, waiting on a CV, sleeping), per-CPU
// idle time, per-monitor contention profiles, CV-wait distributions and
// §6.2 priority-inversion episodes — the accounting evidence behind the
// paper's Tables 1–3 and its priority-inversion analysis.
//
// The Profiler is an online trace.Sink: attach it to a world (directly,
// or to every world of an experiment run via Set and sim.Hooks.OnWorld)
// and it aggregates as events are recorded, so arbitrarily long virtual
// windows stay memory-flat unless span retention (KeepSpans, needed for
// Chrome-trace export and Timeline) is requested.
//
// All accounting is in virtual time and is exact: for every finished
// profile, the running time summed over threads plus the idle time
// summed over CPUs equals CPUs × (End − Start) with zero residue, and
// each thread's state durations sum to its lifetime. Because the input
// is the deterministic virtual-time event stream, profiles are
// byte-identical across -parallel settings.
package profile

import (
	"cmp"
	"slices"
	"strconv"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// State is a thread scheduler state as accounted by the profiler. It is
// finer-grained than sim.State: blocked states are split by reason, the
// split the paper's per-thread accounting needs.
type State int

// Profiler thread states.
const (
	// StateNew: forked but not yet on the ready queue. The simulator
	// makes new threads runnable in the same instant, so this state
	// accumulates no time; it exists to anchor the timeline.
	StateNew State = iota
	// StateReady: on the ready queue, waiting for a CPU.
	StateReady
	// StateRunning: installed on a CPU.
	StateRunning
	// StateMutex: blocked entering a monitor (queue wait).
	StateMutex
	// StateCV: blocked in WAIT on a condition variable.
	StateCV
	// StateJoin: blocked in JOIN.
	StateJoin
	// StateSleep: timed sleep or simulated synchronous I/O.
	StateSleep
	// StateForkWait: blocked in FORK waiting for thread resources (§5.4).
	StateForkWait
	// StateDead: exited.
	StateDead
	numStates
)

var stateNames = [numStates]string{
	"new", "ready", "running", "mutex", "cv-wait", "join", "sleep", "fork-wait", "dead",
}

// String returns the lowercase name of s.
func (s State) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "invalid"
}

// blockState maps a trace Block* reason to the profiler state.
func blockState(reason int64) State {
	switch reason {
	case trace.BlockMutex:
		return StateMutex
	case trace.BlockCV:
		return StateCV
	case trace.BlockJoin:
		return StateJoin
	case trace.BlockSleep:
		return StateSleep
	case trace.BlockFork:
		return StateForkWait
	}
	return StateSleep
}

// Span is one contiguous interval a thread spent in one state. Spans are
// retained only when KeepSpans is set; Chrome-trace export and Timeline
// need them.
type Span struct {
	Thread int32
	State  State
	CPU    int // CPU index for running spans, -1 otherwise
	From   vclock.Time
	To     vclock.Time
}

// ThreadProfile is one thread's accounted timeline.
type ThreadProfile struct {
	ID       int32
	Name     string // filled by ApplyNames; may be empty
	Priority int    // priority at the end of the window
	Born     vclock.Time
	Died     vclock.Time // End for threads still alive at Finish
	Alive    bool        // still live at Finish

	// Durations holds the total time spent in each State. The StateDead
	// entry accumulates time between exit and the end of the window and
	// is excluded from Lifetime.
	Durations [numStates]vclock.Duration

	// Switches counts dispatches onto a CPU; Yields counts YIELD-family
	// calls; Preemptions counts involuntary ready-queue re-entries.
	Switches    int64
	Yields      int64
	Preemptions int64

	// InvertedReady is the portion of ready time during which this
	// thread sat runnable while every CPU ran only strictly
	// lower-priority threads — the §6.2 priority-inversion condition.
	InvertedReady vclock.Duration
}

// Running returns the thread's total CPU time.
func (t *ThreadProfile) Running() vclock.Duration { return t.Durations[StateRunning] }

// Ready returns the total time spent runnable but not running.
func (t *ThreadProfile) Ready() vclock.Duration { return t.Durations[StateReady] }

// Blocked returns the total blocked time across every block reason,
// CV waits included.
func (t *ThreadProfile) Blocked() vclock.Duration {
	return t.Durations[StateMutex] + t.Durations[StateCV] + t.Durations[StateJoin] +
		t.Durations[StateSleep] + t.Durations[StateForkWait]
}

// Lifetime returns Died − Born: the window during which the thread
// existed. The per-thread invariant is that the non-dead state durations
// sum exactly to Lifetime.
func (t *ThreadProfile) Lifetime() vclock.Duration { return t.Died.Sub(t.Born) }

// Label renders "t<id>" or "t<id> <name>" for reports.
func (t *ThreadProfile) Label() string {
	if t.Name == "" {
		return "t" + strconv.Itoa(int(t.ID))
	}
	return "t" + strconv.Itoa(int(t.ID)) + " " + t.Name
}

// MonitorProfile is one monitor lock's contention profile (Table 3's
// population, §6.1's conflict analysis).
type MonitorProfile struct {
	ID        int64
	Enters    int64 // completed ML-Enter operations
	Contended int64 // entries that had to queue for the mutex

	// Hold is the distribution of Enter→Exit hold intervals; QueueWait
	// the distribution of Block→Enter mutex queue waits. QueueWait is nil
	// until the monitor's first completed mutex queue wait: most
	// monitors are never contended, and nil reads as empty.
	Hold      *stats.Histogram
	QueueWait *stats.Histogram

	MaxHold      vclock.Duration
	MaxQueueWait vclock.Duration
}

// CVProfile is one condition variable's wait profile (Table 2's WAIT
// rates, §5.3's timeout analysis).
type CVProfile struct {
	ID       int64
	Waits    int64 // completed WAITs (KindWaitDone observed)
	Timeouts int64 // completed WAITs that timed out
	Signals  int64 // NOTIFY + BROADCAST operations
	Woken    int64 // waiters those signals woke

	// Wait is the distribution of WAIT-begin → WAIT-done intervals as
	// the waiter experiences them (monitor reacquisition excluded; the
	// trace stamps WaitDone before the reacquire).
	Wait    *stats.Histogram
	MaxWait vclock.Duration
}

// InversionProfile aggregates §6.2 priority-inversion episodes: maximal
// intervals during which at least one thread sat ready while every CPU
// ran strictly lower-priority work.
type InversionProfile struct {
	Episodes int64
	Total    vclock.Duration
	Longest  vclock.Duration
	// Durations is the episode-length distribution.
	Durations *stats.Histogram
}

// Profile is a finished accounting result. Build one by feeding a
// Profiler and calling Finish.
type Profile struct {
	CPUs  int
	Start vclock.Time
	End   vclock.Time

	Threads []*ThreadProfile // creation order
	Names   map[int32]string // thread ID -> debug name (ApplyNames)

	CPUIdle     []vclock.Duration // per-CPU idle time
	CPUSwitches []int64           // per-CPU switch-in count

	Monitors []*MonitorProfile // ascending monitor ID
	CVs      []*CVProfile      // ascending CV ID

	Inversion InversionProfile

	// Spans is the full state timeline in chronological order, retained
	// only when the Profiler had KeepSpans set.
	Spans []Span
}

// Window returns the profiled virtual window End − Start.
func (p *Profile) Window() vclock.Duration { return p.End.Sub(p.Start) }

// TotalRunning sums CPU time over all threads.
func (p *Profile) TotalRunning() vclock.Duration {
	var d vclock.Duration
	for _, t := range p.Threads {
		d += t.Running()
	}
	return d
}

// TotalIdle sums idle time over all CPUs.
func (p *Profile) TotalIdle() vclock.Duration {
	var d vclock.Duration
	for _, c := range p.CPUIdle {
		d += c
	}
	return d
}

// Residue returns CPUs × Window − (total running + total idle). A
// correct profile of a complete trace has residue exactly zero; the
// accounting tests assert it.
func (p *Profile) Residue() vclock.Duration {
	return vclock.Duration(int64(p.CPUs))*p.Window() - p.TotalRunning() - p.TotalIdle()
}

// ApplyNames attaches debug names (e.g. from a v2 trace's name table or
// World.Threads) to the profile's threads for rendering.
func (p *Profile) ApplyNames(names map[int32]string) {
	if len(names) == 0 {
		return
	}
	p.Names = names
	for _, t := range p.Threads {
		if n, ok := names[t.ID]; ok {
			t.Name = n
		}
	}
}

// latencyBounds bucket lock holds, queue waits and CV waits: fine
// sub-millisecond buckets up to the 50 ms quantum/timeout scale, then
// coarse buckets to a second. Every latency histogram shares this one
// slice; nothing modifies it.
var latencyBounds = []vclock.Duration{
	100 * vclock.Microsecond,
	vclock.Millisecond,
	5 * vclock.Millisecond,
	10 * vclock.Millisecond,
	50 * vclock.Millisecond,
	100 * vclock.Millisecond,
	500 * vclock.Millisecond,
	vclock.Second,
}

func newLatencyHistogram() *stats.Histogram { return stats.NewHistogram(latencyBounds...) }

// threadRec is a ThreadProfile plus the profiler's live state-machine
// fields. The mutex-queue and CV-wait trackers live inline rather than
// in side maps: every event that needs them already resolved the rec,
// so the hot path touches one cache line instead of three hash tables.
type threadRec struct {
	ThreadProfile
	state    State
	since    vclock.Time
	runCPU   int   // CPU while running (span attribution)
	readyIdx int32 // index into Profiler.ready while StateReady, -1 otherwise

	queueActive bool        // in a monitor mutex queue
	queueSince  vclock.Time // queue entry time while queueActive
	waitActive  bool        // in a CV wait
	waitCV      int64       // CV waited on while waitActive
	waitSince   vclock.Time // wait start while waitActive
}

type cpuRec struct {
	occupant  int32 // thread ID or trace.NoThread
	idleSince vclock.Time
	idle      vclock.Duration
	switches  int64
}

// holdEntry is one live monitor hold. The handful of concurrently held
// monitors lives in a flat slice scanned linearly: cheaper than a map
// for the few-element populations the simulator produces, and — unlike
// map iteration in the KindExit cleanup — deterministic to walk.
type holdEntry struct {
	mon    *MonitorProfile
	thread int32
	since  vclock.Time
}

// denseLimit bounds how large an ID the dense part of an idTable will
// grow to accommodate; anything beyond spills to its map so a hostile
// replay with huge IDs cannot balloon memory.
const denseLimit = 1 << 20

// idTable resolves thread, monitor and CV IDs to their records. The
// simulator allocates all three as small sequential integers, so IDs in
// [0, denseLimit) index a dense slice and the per-event resolve is one
// bounds-checked load instead of a map probe (the single hottest
// operation in a profiled run). Any other ID goes to the map. The table
// also keeps creation order.
type idTable[T any] struct {
	dense  []*T
	sparse map[int64]*T
	order  []*T
}

// get returns id's record, or nil.
func (t *idTable[T]) get(id int64) *T {
	if uint64(id) < uint64(len(t.dense)) {
		return t.dense[id]
	}
	return t.sparse[id]
}

// add registers r as id's record and returns it.
func (t *idTable[T]) add(id int64, r *T) *T {
	if uint64(id) < denseLimit {
		if id >= int64(len(t.dense)) {
			// At least double: growing one append at a time takes
			// append's 1.25x steps once the table is large, and a
			// library's scattered monitor IDs then reallocate it many
			// times over.
			grown := make([]*T, min(max(int(id)+1, 2*len(t.dense)), denseLimit))
			copy(grown, t.dense)
			t.dense = grown
		}
		t.dense[id] = r
	} else {
		if t.sparse == nil {
			t.sparse = make(map[int64]*T)
		}
		t.sparse[id] = r
	}
	t.order = append(t.order, r)
	return r
}

// Profiler is the online accounting sink. Create with New, attach as a
// trace sink, then call Finish once the run is over.
//
// A Profiler is not safe for concurrent use; like any trace sink it
// belongs to exactly one world.
type Profiler struct {
	// KeepSpans retains the full state timeline for Chrome-trace export
	// and Timeline.
	// Set it before the first event; memory grows with trace length.
	KeepSpans bool

	cpus  int
	now   vclock.Time
	start vclock.Time
	cpu   []cpuRec

	threads  idTable[threadRec]
	monitors idTable[MonitorProfile]
	cvs      idTable[CVProfile]

	// ready holds exactly the StateReady threads, so the advance loop —
	// run on every time-advancing event — charges inversion time without
	// visiting the (mostly blocked) full thread population.
	ready []*threadRec

	holds []holdEntry // live monitor holds

	invOpen  bool
	invSince vclock.Time
	inv      InversionProfile

	spans    []Span
	finished bool
	result   *Profile
}

// New creates a profiler for a world with the given CPU count. The
// profiled window starts at the virtual epoch (time 0), where every
// simulated world starts. CPUs that appear in switch events beyond the
// declared count are added on the fly, so a conservative count (e.g. 1
// when replaying a trace of unknown origin) underestimates only the
// idle time of CPUs that never dispatched at all.
func New(cpus int) *Profiler {
	if cpus < 1 {
		cpus = 1
	}
	p := &Profiler{
		cpus: cpus,
		cpu:  make([]cpuRec, cpus),
	}
	for i := range p.cpu {
		p.cpu[i].occupant = trace.NoThread
	}
	p.inv.Durations = stats.NewHistogram(
		vclock.Millisecond,
		5*vclock.Millisecond,
		10*vclock.Millisecond,
		50*vclock.Millisecond,
		100*vclock.Millisecond,
		500*vclock.Millisecond,
		vclock.Second,
	)
	return p
}

// Flush implements trace.Sink; the profiler aggregates in memory.
func (p *Profiler) Flush() error { return nil }

// Record implements trace.Sink.
func (p *Profiler) Record(ev trace.Event) {
	if p.finished {
		return
	}
	if ev.Time > p.now {
		p.advance(ev.Time)
	}
	switch ev.Kind {
	case trace.KindFork:
		child := p.thread(int32(ev.Arg), ev.Time)
		child.Priority = int(ev.Aux)

	case trace.KindReady:
		r := p.thread(ev.Thread, ev.Time)
		if r.state == StateRunning && int64(ev.Thread) != ev.Arg {
			// Re-queued by a preemptor (a yield re-queue carries the
			// thread's own ID in Arg).
			r.Preemptions++
		}
		p.setState(r, ev.Time, StateReady)

	case trace.KindBlock:
		r := p.thread(ev.Thread, ev.Time)
		s := blockState(ev.Aux)
		if s == StateMutex {
			r.queueActive = true
			r.queueSince = ev.Time
		}
		p.setState(r, ev.Time, s)

	case trace.KindSwitch:
		p.onSwitch(ev)

	case trace.KindExit:
		r := p.thread(ev.Thread, ev.Time)
		// Kill-unwind releases held monitors without MLExit records
		// (cf. the explore exclusion oracle); close those holds here.
		for i := 0; i < len(p.holds); {
			if p.holds[i].thread == ev.Thread {
				p.closeHold(i, ev.Time)
			} else {
				i++
			}
		}
		r.queueActive = false
		r.waitActive = false
		p.setState(r, ev.Time, StateDead)
		r.Died = ev.Time

	case trace.KindSetPriority:
		p.thread(ev.Thread, ev.Time).Priority = int(ev.Aux)

	case trace.KindYield:
		p.thread(ev.Thread, ev.Time).Yields++

	case trace.KindMLEnter:
		m := p.monitor(ev.Arg)
		m.Enters++
		if ev.Aux == 1 {
			m.Contended++
		}
		if r := p.thread(ev.Thread, ev.Time); r.queueActive {
			d := ev.Time.Sub(r.queueSince)
			if m.QueueWait == nil {
				m.QueueWait = newLatencyHistogram()
			}
			m.QueueWait.Add(d)
			m.MaxQueueWait = max(m.MaxQueueWait, d)
			r.queueActive = false
		}
		p.openHold(m, ev.Thread, ev.Time)

	case trace.KindMLExit:
		for i, h := range p.holds {
			if h.mon.ID == ev.Arg {
				if h.thread == ev.Thread {
					p.closeHold(i, ev.Time)
				}
				break
			}
		}

	case trace.KindWait:
		p.cv(ev.Arg) // register in first-use order even if the wait never completes
		r := p.thread(ev.Thread, ev.Time)
		r.waitActive = true
		r.waitCV = ev.Arg
		r.waitSince = ev.Time

	case trace.KindWaitDone:
		cv := p.cv(ev.Arg)
		cv.Waits++
		if ev.Aux == 1 {
			cv.Timeouts++
		}
		if r := p.thread(ev.Thread, ev.Time); r.waitActive && r.waitCV == ev.Arg {
			d := ev.Time.Sub(r.waitSince)
			cv.Wait.Add(d)
			cv.MaxWait = max(cv.MaxWait, d)
			r.waitActive = false
		}

	case trace.KindNotify, trace.KindBroadcast:
		cv := p.cv(ev.Arg)
		cv.Signals++
		cv.Woken += ev.Aux
	}
}

// openHold records that thread holds monitor m as of t, replacing any
// hold already open on the same monitor (an MLEnter without a matching
// MLExit, as a handoff records).
func (p *Profiler) openHold(m *MonitorProfile, thread int32, t vclock.Time) {
	for i := range p.holds {
		if p.holds[i].mon == m {
			p.holds[i].thread = thread
			p.holds[i].since = t
			return
		}
	}
	p.holds = append(p.holds, holdEntry{mon: m, thread: thread, since: t})
}

// closeHold ends live hold i at t, adds its length to the monitor's
// hold profile and drops it from the hold list.
func (p *Profiler) closeHold(i int, t vclock.Time) {
	h := p.holds[i]
	d := t.Sub(h.since)
	h.mon.Hold.Add(d)
	h.mon.MaxHold = max(h.mon.MaxHold, d)
	p.holds[i] = p.holds[len(p.holds)-1]
	p.holds = p.holds[:len(p.holds)-1]
}

// onSwitch applies a CPU dispatch record, using per-CPU occupancy (not
// the record's Arg) to close the outgoing interval: a yield vacates the
// CPU without a switch record of its own, so Arg alone is not reliable.
// A record whose CPU index lies outside [0, trace.MaxCPUs) is ignored,
// so a hostile one cannot grow the per-CPU table without bound.
func (p *Profiler) onSwitch(ev trace.Event) {
	if ev.Aux < 0 || ev.Aux >= trace.MaxCPUs {
		return
	}
	idx := int(ev.Aux)
	for idx >= len(p.cpu) {
		p.cpu = append(p.cpu, cpuRec{occupant: trace.NoThread, idleSince: p.start})
		p.cpus++
	}
	c := &p.cpu[idx]
	if c.occupant != trace.NoThread {
		if r := p.threads.get(int64(c.occupant)); r != nil && r.state == StateRunning {
			// No explicit ready/block/exit record preceded this switch
			// (traces predating explicit re-queue events): infer the
			// ready-queue re-entry.
			p.setState(r, ev.Time, StateReady)
		}
	} else {
		c.idle += ev.Time.Sub(c.idleSince)
	}
	c.occupant = ev.Thread
	if ev.Thread == trace.NoThread {
		c.idleSince = ev.Time
		return
	}
	c.switches++
	r := p.thread(ev.Thread, ev.Time)
	r.runCPU = idx
	r.Switches++
	p.setState(r, ev.Time, StateRunning)
}

// advance charges the interval (p.now, t) — during which the settled
// state cannot change — with priority-inversion accounting, then moves
// the profiler clock. With no runnable-but-waiting thread there is
// nothing to charge, so the common case is a clock assignment; otherwise
// only the ready set is visited, never the full thread population.
func (p *Profiler) advance(t vclock.Time) {
	if len(p.ready) == 0 {
		if p.invOpen {
			p.closeEpisode(p.now)
		}
		p.now = t
		return
	}
	dt := t.Sub(p.now)
	inverted := false
	if minPri, busy := p.minRunningPriority(); busy {
		for _, r := range p.ready {
			if r.Priority > minPri {
				r.InvertedReady += dt
				inverted = true
			}
		}
	}
	if inverted && !p.invOpen {
		p.invOpen = true
		p.invSince = p.now
	} else if !inverted && p.invOpen {
		p.closeEpisode(p.now)
	}
	p.now = t
}

// minRunningPriority returns the lowest priority currently running and
// whether every CPU is busy. With an idle CPU no ready thread is being
// denied a processor, so no inversion can be in progress.
func (p *Profiler) minRunningPriority() (int, bool) {
	min := int(^uint(0) >> 1)
	for i := range p.cpu {
		occ := p.cpu[i].occupant
		if occ == trace.NoThread {
			return 0, false
		}
		if r := p.threads.get(int64(occ)); r != nil && r.Priority < min {
			min = r.Priority
		}
	}
	return min, len(p.cpu) > 0
}

func (p *Profiler) closeEpisode(end vclock.Time) {
	d := end.Sub(p.invSince)
	p.invOpen = false
	if d <= 0 {
		return
	}
	p.inv.Episodes++
	p.inv.Total += d
	if d > p.inv.Longest {
		p.inv.Longest = d
	}
	p.inv.Durations.Add(d)
}

// setState closes the thread's current state interval and opens a new
// one at t, keeping the ready set in sync. A thread that stops running
// vacates its CPU, which is idle from t until its next switch record: a
// yielding thread may be dispatched on another CPU while no record ever
// names the one it left.
func (p *Profiler) setState(r *threadRec, t vclock.Time, s State) {
	if r.state == s {
		return
	}
	p.closeInterval(r, t)
	if r.state == StateRunning && p.cpu[r.runCPU].occupant == r.ID {
		p.cpu[r.runCPU].occupant = trace.NoThread
		p.cpu[r.runCPU].idleSince = t
	}
	if r.state == StateReady {
		last := len(p.ready) - 1
		moved := p.ready[last]
		p.ready[r.readyIdx] = moved
		moved.readyIdx = r.readyIdx
		p.ready[last] = nil
		p.ready = p.ready[:last]
		r.readyIdx = -1
	}
	r.state = s
	if s == StateReady {
		r.readyIdx = int32(len(p.ready))
		p.ready = append(p.ready, r)
	}
}

// closeInterval charges the thread's current state with the time from
// the start of its interval to t, retaining the span under KeepSpans,
// and restarts the interval at t.
func (p *Profiler) closeInterval(r *threadRec, t vclock.Time) {
	d := t.Sub(r.since)
	r.Durations[r.state] += d
	if p.KeepSpans && d > 0 && r.state != StateDead {
		cpu := -1
		if r.state == StateRunning {
			cpu = r.runCPU
		}
		p.spans = append(p.spans, Span{Thread: r.ID, State: r.state, CPU: cpu, From: r.since, To: t})
	}
	r.since = t
}

// thread returns the thread's record, registering it at t on first use.
func (p *Profiler) thread(id int32, t vclock.Time) *threadRec {
	if r := p.threads.get(int64(id)); r != nil {
		return r
	}
	r := &threadRec{state: StateNew, since: t, runCPU: -1, readyIdx: -1}
	r.ID = id
	r.Born = t
	return p.threads.add(int64(id), r)
}

func (p *Profiler) monitor(id int64) *MonitorProfile {
	if m := p.monitors.get(id); m != nil {
		return m
	}
	return p.monitors.add(id, &MonitorProfile{ID: id, Hold: newLatencyHistogram()})
}

func (p *Profiler) cv(id int64) *CVProfile {
	if c := p.cvs.get(id); c != nil {
		return c
	}
	return p.cvs.add(id, &CVProfile{ID: id, Wait: newLatencyHistogram()})
}

// Finish closes every open interval at end and returns the completed
// profile. Calling Finish again returns the same profile; events
// recorded after Finish are ignored.
func (p *Profiler) Finish(end vclock.Time) *Profile {
	if p.finished {
		return p.result
	}
	if end < p.now {
		end = p.now
	}
	p.advance(end)
	if p.invOpen {
		p.closeEpisode(end)
	}
	prof := &Profile{
		CPUs:      p.cpus,
		Start:     p.start,
		End:       end,
		Inversion: p.inv,
	}
	for _, r := range p.threads.order {
		// Close the final interval without a state change.
		p.closeInterval(r, end)
		if r.state != StateDead {
			r.Died = end
			r.Alive = true
		}
		prof.Threads = append(prof.Threads, &r.ThreadProfile)
	}
	for i := range p.cpu {
		c := &p.cpu[i]
		if c.occupant == trace.NoThread {
			c.idle += end.Sub(c.idleSince)
			c.idleSince = end
		}
		prof.CPUIdle = append(prof.CPUIdle, c.idle)
		prof.CPUSwitches = append(prof.CPUSwitches, c.switches)
	}
	// Ascending ID: allocation order.
	prof.Monitors = append(prof.Monitors, p.monitors.order...)
	prof.CVs = append(prof.CVs, p.cvs.order...)
	slices.SortFunc(prof.Monitors, func(a, b *MonitorProfile) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortFunc(prof.CVs, func(a, b *CVProfile) int { return cmp.Compare(a.ID, b.ID) })
	prof.Spans = p.spans
	p.finished = true
	p.result = prof
	return prof
}

package sim

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/eventq"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// The hot-path allocation suite. The PR-5 overhaul made the event loop,
// the ready queues and the discard-sink tracing path allocation-free in
// steady state; these benchmarks report allocs/op so a regression is
// visible in `make bench` output, and TestHotPathAllocs pins the
// steady-state counts to zero so a regression fails the suite outright.

// BenchmarkEventLoop measures one pooled timer event: schedule into the
// indexed heap, pop, recycle the event struct.
func BenchmarkEventLoop(b *testing.B) {
	w := NewWorld(Config{TimeoutGranularity: 1})
	defer w.Shutdown()
	n := b.N
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < n {
			w.After(vclock.Microsecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	w.After(vclock.Microsecond, tick)
	w.Run(vclock.Never - 1)
	if fired != n {
		b.Fatalf("fired %d of %d", fired, n)
	}
}

// BenchmarkReadyQueueOps measures the intrusive ready-queue primitives:
// 64 threads across all seven priorities pushed, then drained in
// priority order through the occupancy bitmap.
func BenchmarkReadyQueueOps(b *testing.B) {
	w := NewWorld(Config{})
	defer w.Shutdown()
	body := func(t *Thread) any { return nil }
	ths := make([]*Thread, 64)
	for i := range ths {
		ths[i] = w.newThread(fmt.Sprintf("t%d", i), Priority(1+i%int(NumPriorities)), body, nil, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range ths {
			w.pushReady(t, false)
		}
		for w.readyMask != 0 {
			w.removeReady(w.topRunnable())
		}
	}
}

// BenchmarkDiscardTrace measures the tracing fast path when the sink is
// trace.Discard: one predicate load, no event copy.
func BenchmarkDiscardTrace(b *testing.B) {
	w := NewWorld(Config{})
	defer w.Shutdown()
	ev := trace.Event{Time: 1, Kind: trace.KindYield, Thread: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.record(ev)
	}
}

// BenchmarkComputeFastPath measures the inline clock advance: a lone
// running thread consuming CPU demand with no competitor and no
// intervening event skips the park/heap round trip entirely.
func BenchmarkComputeFastPath(b *testing.B) {
	w := NewWorld(Config{SwitchCost: -1, TimeoutGranularity: 1})
	defer w.Shutdown()
	stop := false
	w.Spawn("worker", PriorityNormal, func(t *Thread) any {
		for !stop {
			t.Compute(vclock.Microsecond)
		}
		return nil
	})
	horizon := vclock.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		horizon = horizon.Add(vclock.Microsecond)
		w.Run(horizon)
	}
	b.StopTimer()
	stop = true
}

// newHandoffWorld returns a world in which two equal-priority threads
// compute against each other in 1 µs steps. With a peer always ready the
// compute fast path never applies, so every step is one park/resume round
// trip between the driver and a thread, and every 10 µs quantum the CPU
// round-robins to the other thread.
func newHandoffWorld() *World {
	w := NewWorld(Config{SwitchCost: -1, TimeoutGranularity: 1, Quantum: 10 * vclock.Microsecond})
	for _, name := range []string{"ping", "pong"} {
		w.Spawn(name, PriorityNormal, func(t *Thread) any {
			for {
				t.Compute(vclock.Microsecond)
			}
		})
	}
	return w
}

// BenchmarkHandoff measures the driver/thread switch: one op is one
// virtual microsecond of newHandoffWorld, i.e. one park/resume round trip
// plus its compute completion (the CPU's completion slot firing).
func BenchmarkHandoff(b *testing.B) {
	w := newHandoffWorld()
	defer w.Shutdown()
	w.Run(vclock.Time(100 * vclock.Microsecond)) // both threads started
	b.ReportAllocs()
	b.ResetTimer()
	w.Run(w.Now().Add(vclock.Duration(b.N) * vclock.Microsecond))
}

// BenchmarkWheelScheduleCancel measures the mostly-cancelled timer
// population the paper's CV timeouts produce: schedule a spread of
// pooled timers across every wheel level, then cancel them all before
// any fires — pure O(1) bucket splices, no heap traffic.
func BenchmarkWheelScheduleCancel(b *testing.B) {
	w := NewWorld(Config{TimeoutGranularity: 1})
	defer w.Shutdown()
	nop := func() {}
	offsets := []vclock.Duration{ // one per wheel level, plus slot strides
		3 * vclock.Microsecond, 150 * vclock.Microsecond,
		20 * vclock.Millisecond, 2 * vclock.Second,
	}
	handles := make([]eventq.Handle, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handles = handles[:0]
		for j := 0; j < 64; j++ {
			d := offsets[j%len(offsets)] + vclock.Duration(j)*vclock.Microsecond
			handles = append(handles, w.evq.Schedule(w.clock.Add(d), nop))
		}
		for _, h := range handles {
			w.evq.Cancel(h)
		}
	}
}

// BenchmarkBatchAdmission measures a same-timestamp event run draining
// through a single level-0 wheel bucket: after the first pop finds the
// bucket, each further event is an O(1) head unlink with no per-event
// heap consultation.
func BenchmarkBatchAdmission(b *testing.B) {
	w := NewWorld(Config{TimeoutGranularity: 1})
	defer w.Shutdown()
	const batch = 64
	fired := 0
	nop := func() { fired++ }
	horizon := vclock.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			w.After(vclock.Microsecond, nop) // all at the same instant
		}
		horizon = horizon.Add(2 * vclock.Microsecond)
		w.Run(horizon)
	}
	b.StopTimer()
	if fired != b.N*batch {
		b.Fatalf("fired %d of %d", fired, b.N*batch)
	}
}

// TestHotPathAllocs pins the steady-state allocation counts of the hot
// paths to exactly zero. `make bench` runs this test alongside the
// benchmarks, so an allocation slipping back into the hot path fails CI
// rather than silently eroding the throughput win.
func TestHotPathAllocs(t *testing.T) {
	// Event loop: batches of pooled timer events through the indexed heap.
	w := NewWorld(Config{TimeoutGranularity: 1})
	defer w.Shutdown()
	const batch = 100
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired%batch != 0 {
			w.After(vclock.Microsecond, tick)
		}
	}
	horizon := vclock.Time(0)
	runBatch := func() {
		w.After(vclock.Microsecond, tick)
		horizon = horizon.Add(2 * batch * vclock.Microsecond)
		w.Run(horizon)
	}
	runBatch() // warm the event pool
	if got := testing.AllocsPerRun(10, runBatch); got > 0 {
		t.Errorf("event loop: %.1f allocs per %d events, want 0", got, batch)
	}

	// Ready-queue ops: intrusive splice in, bitmap-guided drain.
	body := func(th *Thread) any { return nil }
	ths := make([]*Thread, 64)
	for i := range ths {
		ths[i] = w.newThread(fmt.Sprintf("rq%d", i), Priority(1+i%int(NumPriorities)), body, nil, nil)
	}
	pushDrain := func() {
		for _, th := range ths {
			w.pushReady(th, false)
		}
		for w.readyMask != 0 {
			w.removeReady(w.topRunnable())
		}
	}
	if got := testing.AllocsPerRun(10, pushDrain); got > 0 {
		t.Errorf("ready queue: %.1f allocs per push+drain of %d threads, want 0", got, len(ths))
	}

	// Discard-sink tracing: record must be a guarded no-op.
	ev := trace.Event{Time: 1, Kind: trace.KindYield, Thread: 1}
	if got := testing.AllocsPerRun(100, func() { w.record(ev) }); got > 0 {
		t.Errorf("discard tracing: %.1f allocs per record, want 0", got)
	}

	// Timing wheel schedule/cancel: the mostly-cancelled CV-timeout
	// population. Offsets span all four wheel levels so a regression in
	// any level's bucket splice shows up.
	nop := func() {}
	offsets := []vclock.Duration{
		3 * vclock.Microsecond, 150 * vclock.Microsecond,
		20 * vclock.Millisecond, 2 * vclock.Second,
	}
	handles := make([]eventq.Handle, 0, 64)
	churn := func() {
		handles = handles[:0]
		for j := 0; j < 64; j++ {
			d := offsets[j%len(offsets)] + vclock.Duration(j)*vclock.Microsecond
			handles = append(handles, w.evq.Schedule(w.clock.Add(d), nop))
		}
		for _, h := range handles {
			w.evq.Cancel(h)
		}
	}
	churn() // warm the event pool across levels
	if got := testing.AllocsPerRun(10, churn); got > 0 {
		t.Errorf("wheel schedule/cancel: %.1f allocs per %d-timer churn, want 0", got, len(handles))
	}

	// Timer slots: a CPU's quantum and compute completion are re-armed
	// and disarmed in place, never allocated per setting. The slot is
	// registered once, as NewWorld registers each CPU's two.
	var slot eventq.Timer
	w.evq.Register(&slot, nop)
	armDisarm := func() {
		for _, d := range offsets {
			slot.Arm(w.clock.Add(d))
		}
		slot.Disarm()
	}
	if got := testing.AllocsPerRun(100, armDisarm); got > 0 {
		t.Errorf("timer slot arm/disarm: %.1f allocs per %d arms and a disarm, want 0", got, len(offsets))
	}

	// Batch admission: a same-timestamp run drains through one level-0
	// bucket without per-event heap consultation — and without allocating.
	const batchN = 64
	drained := 0
	bump := func() { drained++ }
	batchDrain := func() {
		for j := 0; j < batchN; j++ {
			w.After(vclock.Microsecond, bump)
		}
		horizon = horizon.Add(2 * vclock.Microsecond)
		w.Run(horizon)
	}
	batchDrain() // warm the pool to batch depth
	before := drained
	if got := testing.AllocsPerRun(10, batchDrain); got > 0 {
		t.Errorf("batch admission: %.1f allocs per %d-event drain, want 0", got, batchN)
	}
	if drained-before != 10*batchN+batchN {
		// AllocsPerRun does runs+1 invocations (one extra warmup call).
		t.Errorf("batch admission drained %d events, want %d", drained-before, 11*batchN)
	}

	// Ticketed scheduling: a batch of tickets taken ahead, then redeemed
	// one at a time through ArmTicket by one registered slot, the way a
	// driver feeds an ordered backlog into a world.
	tickets := make([]uint64, 0, batchN)
	redeemAt, redeemed := vclock.Time(0), 0
	var pump eventq.Timer
	w.RegisterTimer(&pump, func() {
		if redeemed++; redeemed < len(tickets) {
			w.ArmTicket(&pump, redeemAt, tickets[redeemed])
		}
	})
	ticketed := func() {
		tickets, redeemed = tickets[:0], 0
		for j := 0; j < batchN; j++ {
			tickets = append(tickets, w.Ticket())
		}
		redeemAt = horizon.Add(vclock.Microsecond)
		w.ArmTicket(&pump, redeemAt, tickets[0])
		horizon = horizon.Add(2 * vclock.Microsecond)
		w.Run(horizon)
	}
	ticketed() // warm
	if got := testing.AllocsPerRun(10, ticketed); got > 0 {
		t.Errorf("ticketed scheduling: %.1f allocs per %d-ticket backlog, want 0", got, batchN)
	}
	if redeemed != batchN {
		t.Errorf("ticketed scheduling redeemed %d of %d tickets", redeemed, batchN)
	}

	// Cohort arrivals: a feed keeping its next arrival in one registered
	// slot, re-armed from the slot's own callback under a fresh ticket,
	// the way the workload package's arrival generator does.
	var feed eventq.Timer
	arrivals := 0
	w.RegisterTimer(&feed, func() {
		arrivals++
		w.ArmTicket(&feed, w.Now().Add(vclock.Microsecond), w.Ticket())
	})
	w.ArmTicket(&feed, w.Now(), w.Ticket())
	cohort := func() {
		horizon = horizon.Add(batchN * vclock.Microsecond)
		w.Run(horizon)
	}
	cohort() // warm
	before = arrivals
	if got := testing.AllocsPerRun(10, cohort); got > 0 {
		t.Errorf("cohort arrivals: %.1f allocs per %d arrivals, want 0", got, batchN)
	}
	if n := arrivals - before; n != 11*batchN {
		t.Errorf("cohort arrivals: %d arrivals in 11 runs of %d µs, want one per µs", n, batchN)
	}
	feed.Disarm()

	// Aging tick: a policy with a Tick period gets one registered slot
	// that fires, sweeps the ready queues and re-arms itself in place.
	// The sleeper keeps a thread live, so the tick keeps re-arming.
	aw := NewWorld(Config{TimeoutGranularity: 1, Hooks: Hooks{Policy: tickingPolicy{PCRPolicy}}})
	defer aw.Shutdown()
	aw.Spawn("sleeper", PriorityNormal, func(th *Thread) any { th.Sleep(1000 * vclock.Second); return nil })
	const ticks = 10
	age := func() { aw.Run(aw.Now().Add(ticks * tickingPeriod)) }
	age() // start the sleeper
	events := aw.EventsProcessed()
	if got := testing.AllocsPerRun(10, age); got > 0 {
		t.Errorf("aging tick: %.1f allocs per %d ticks, want 0", got, ticks)
	}
	if n := aw.EventsProcessed() - events; n != 11*ticks {
		t.Errorf("aging tick: %d events in 11 runs of %d periods, want one tick per period", n, ticks)
	}

	// Thread handoff: park/resume round trips between the driver and two
	// threads computing against each other, quantum rotations included.
	hw := newHandoffWorld()
	defer hw.Shutdown()
	const span = 100 * vclock.Microsecond
	handoffs := func() { hw.Run(hw.Now().Add(span)) }
	handoffs() // start both threads
	events = hw.EventsProcessed()
	if got := testing.AllocsPerRun(10, handoffs); got > 0 {
		t.Errorf("thread handoff: %.1f allocs per %v of round trips, want 0", got, span)
	}
	if n := hw.EventsProcessed() - events; n < 11*int64(span/vclock.Microsecond) {
		t.Errorf("thread handoff: %d events in 11 spans, want one completion per µs", n)
	}

	// Stackless sessions: one request per session — inject, wake,
	// compute (parked for the first session, in place for the second,
	// which then has the CPU to itself), complete, re-block.
	sw := NewWorld(Config{TimeoutGranularity: 1})
	defer sw.Shutdown()
	sessions := []*echoStep{{service: 5 * vclock.Microsecond}, {service: 5 * vclock.Microsecond}}
	for i, s := range sessions {
		s.th = sw.SpawnStep(fmt.Sprintf("session-%d", i), PriorityNormal, s)
	}
	// The arrival tick re-arms itself, so every Run ends at its horizon
	// rather than finding the world idle (a deadlock verdict allocates).
	var arrive func()
	arrive = func() {
		for _, s := range sessions {
			s.queued++
			sw.WakeIfBlocked(s.th, nil)
		}
		sw.After(vclock.Millisecond, arrive)
	}
	sw.After(vclock.Millisecond/2, arrive)
	request := func() { sw.Run(sw.Now().Add(vclock.Millisecond)) }
	// Warm up: the event pool fills across the wheel levels the run
	// touches. (The CPU's quantum and completion slots were bound to
	// their callbacks once, by NewWorld.)
	const warm = 10
	for i := 0; i < warm; i++ {
		request()
	}
	if got := testing.AllocsPerRun(10, request); got > 0 {
		t.Errorf("stackless session: %.1f allocs per request, want 0", got)
	}
	for i, s := range sessions {
		if s.done != warm+11 || s.th.State() != StateBlocked {
			t.Errorf("session %d served %d of %d requests, %v", i, s.done, warm+11, s.th)
		}
	}
}

// tickingPolicy is a policy with an aging period and no aging moves.
type tickingPolicy struct{ Policy }

const tickingPeriod = vclock.Millisecond

func (tickingPolicy) Tick() vclock.Duration { return tickingPeriod }

// TestWorldSizeClass pins World inside the 4,864-byte allocation size
// class: the runtime prefixes a pointerful object over 512 bytes with an
// 8-byte header, so 8 more bytes of World would take every world to the
// 5,376-byte class, 512 bytes more per world in a fleet.
func TestWorldSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(World{}); n > 4864-8 {
		t.Errorf("World is %d bytes, want at most %d", n, 4864-8)
	}
}

// echoStep is a minimal stackless session: it serves a counter of
// queued requests and blocks when the counter is empty.
type echoStep struct {
	th      *Thread
	service vclock.Duration
	queued  int
	serving bool
	done    int
}

func (s *echoStep) Step(t *Thread) bool {
	if s.serving {
		s.serving = false
		s.done++
	}
	for s.queued > 0 {
		s.queued--
		s.serving = true
		t.Compute(s.service)
		if t.Parked() {
			return true
		}
		s.serving = false
		s.done++
	}
	t.Block(BlockCV)
	return true
}

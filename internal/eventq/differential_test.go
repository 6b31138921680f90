package eventq

import (
	"math/rand"
	"testing"

	"repro/internal/vclock"
)

// The differential battery: every operation sequence is applied to both
// the wheel/heap hybrid and a naive reference model (a flat slice scanned
// for the (when, seq) minimum, with seqs numbered explicitly so a ticket
// reserved early orders ahead of later schedules), asserting identical
// pop order, NextTime, Len, and Handle-generation semantics after every
// step. The deterministic tests below and FuzzWheelDifferential share one
// byte-stream interpreter, so a fuzz crasher replays directly as a test
// case.

// failer is the subset of testing.TB the interpreter needs, letting the
// fuzz target and the plain tests share it.
type failer interface {
	Helper()
	Fatalf(format string, args ...any)
}

// refEvent is one scheduled event in the reference model.
type refEvent struct {
	when vclock.Time
	seq  uint64
	live bool
}

// maxDiffEvents bounds a single differential run so fuzz inputs cannot
// turn the O(n) reference scans into a timeout; maxDiffTickets bounds the
// unused tickets held at once.
const (
	maxDiffEvents  = 2048
	maxDiffTickets = 256
)

// runDifferential interprets data as an operation stream over a fresh
// Queue and the reference model.
//
// Stream grammar (total: any byte slice is a valid program):
//
//	op%6 == 0,1: schedule; a scale byte picks the temporal band (level-0
//	             ties through far-future heap spillover and past times),
//	             three raw bytes pick the offset within the band. While
//	             tickets are held, op%6 == 1 schedules under the held
//	             ticket (op/6) mod held, so the event takes a seq smaller
//	             than everything scheduled since the ticket was taken
//	op%6 == 2:   cancel the handle named by the next byte (possibly
//	             already popped or cancelled: must be a no-op)
//	op%6 == 3:   pop one event
//	op%6 == 4:   drain the entire run of events at NextTime (the batch
//	             path: same-timestamp events through one level-0 bucket)
//	op%6 == 5:   reserve a ticket and hold it (invariants still checked)
func runDifferential(t failer, data []byte) {
	t.Helper()
	var q Queue
	var ref []refEvent
	var handles []Handle
	var tickets []uint64 // reserved, not yet scheduled
	var seq uint64       // the reference's own insertion counter
	lastPopped := -1
	now := vclock.Time(0)

	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}

	refMin := func() int {
		best := -1
		for i := range ref {
			if !ref[i].live {
				continue
			}
			if best == -1 || ref[i].when < ref[best].when ||
				ref[i].when == ref[best].when && ref[i].seq < ref[best].seq {
				best = i
			}
		}
		return best
	}
	refNextTime := func() vclock.Time {
		if i := refMin(); i >= 0 {
			return ref[i].when
		}
		return vclock.Never
	}
	refLen := func() int {
		n := 0
		for i := range ref {
			if ref[i].live {
				n++
			}
		}
		return n
	}
	check := func(ctx string) {
		if got, want := q.Len(), refLen(); got != want {
			t.Fatalf("%s: Len = %d, reference has %d live events", ctx, got, want)
		}
		if got, want := q.NextTime(), refNextTime(); got != want {
			t.Fatalf("%s: NextTime = %v, reference min is %v", ctx, got, want)
		}
		if q.Empty() != (refLen() == 0) {
			t.Fatalf("%s: Empty = %v with %d reference events", ctx, q.Empty(), refLen())
		}
	}
	popOne := func() {
		want := refMin()
		do, when, ok := q.PopDo()
		if want == -1 {
			if ok {
				t.Fatalf("PopDo returned an event at %v from an empty reference", when)
			}
			return
		}
		if !ok {
			t.Fatalf("PopDo empty but reference holds an event at %v", ref[want].when)
		}
		if when != ref[want].when {
			t.Fatalf("popped at %v, reference min at %v", when, ref[want].when)
		}
		lastPopped = -1
		do()
		if lastPopped != want {
			t.Fatalf("popped event #%d, reference min is #%d (FIFO/seq order broken at t=%v)",
				lastPopped, want, when)
		}
		ref[want].live = false
		if handles[want].Valid() {
			t.Fatalf("handle of popped event #%d still valid", want)
		}
		if when > now {
			now = when
		}
	}

	for pos < len(data) {
		switch op := next(); op % 6 {
		case 0, 1:
			if len(ref) >= maxDiffEvents {
				continue
			}
			scale := next()
			raw := int64(next())<<16 | int64(next())<<8 | int64(next())
			var dt int64
			switch scale % 8 {
			case 0:
				dt = raw % 4 // same-timestamp batches
			case 1:
				dt = raw % 64 // level 0
			case 2:
				dt = raw % 4096 // level 1
			case 3:
				dt = raw % (1 << 18) // level 2
			case 4:
				dt = raw % (1 << 24) // level 3
			case 5:
				dt = 1<<24 + raw // beyond the wheel: far-future heap
			case 6:
				dt = -raw // past timestamp: heap
			case 7:
				dt = raw%260*63 + 1 // stride across slot boundaries
			}
			when := now.Add(vclock.Duration(dt))
			id := len(ref)
			fn := func() { lastPopped = id }
			var h Handle
			var s uint64
			if op%6 == 1 && len(tickets) > 0 {
				k := int(op/6) % len(tickets)
				s = tickets[k]
				tickets = append(tickets[:k], tickets[k+1:]...)
				h = q.ScheduleSeq(when, s, fn)
			} else {
				s = seq
				seq++
				h = q.Schedule(when, fn)
			}
			if !h.Valid() {
				t.Fatalf("fresh handle for event #%d invalid", id)
			}
			handles = append(handles, h)
			ref = append(ref, refEvent{when: when, seq: s, live: true})
		case 2:
			if len(handles) == 0 {
				continue
			}
			i := int(next()) % len(handles)
			if handles[i].Valid() != ref[i].live {
				t.Fatalf("handle #%d Valid = %v, reference live = %v",
					i, handles[i].Valid(), ref[i].live)
			}
			q.Cancel(handles[i]) // stale Cancel must be a no-op
			ref[i].live = false
			if handles[i].Valid() {
				t.Fatalf("cancelled handle #%d still valid", i)
			}
		case 3:
			popOne()
		case 4:
			nt := q.NextTime()
			for !q.Empty() && q.NextTime() == nt {
				popOne()
			}
		case 5:
			if len(tickets) >= maxDiffTickets {
				continue
			}
			if got := q.Reserve(); got != seq {
				t.Fatalf("Reserve = %d, reference counter at %d", got, seq)
			}
			tickets = append(tickets, seq)
			seq++
		}
		check("after op")
	}
	for refLen() > 0 {
		popOne()
		check("final drain")
	}
	if _, _, ok := q.PopDo(); ok {
		t.Fatalf("queue still has events after the reference drained")
	}
}

// TestDifferentialTargeted drives hand-built sequences at the wheel's
// seams: window boundaries of every level, same-timestamp batches across
// a cascade, cancel-of-minimum, heap/wheel ties, and past timestamps.
func TestDifferentialTargeted(t *testing.T) {
	sched := func(scale byte, raw int) []byte {
		return []byte{0, scale, byte(raw >> 16), byte(raw >> 8), byte(raw)}
	}
	var cases = map[string][]byte{
		"level0-ties-then-batch-drain": concat(
			sched(0, 0), sched(0, 0), sched(0, 0), sched(0, 1), []byte{4}),
		"slot-boundary-63-64-65": concat(
			sched(1, 63), sched(2, 64), sched(2, 65), []byte{3, 3, 3}),
		"window-boundary-4095-4096": concat(
			sched(2, 4095), sched(3, 4096), []byte{3, 3}),
		"deep-window-boundary": concat(
			sched(3, (1<<18)-1), sched(4, 1<<18), []byte{3, 3}),
		"wheel-horizon-spillover": concat(
			sched(4, (1<<24)-1), sched(5, 0), sched(5, 1), []byte{3, 3, 3}),
		"past-schedule-pops-first": concat(
			sched(1, 10), sched(6, 5), []byte{3, 3}),
		"cancel-min-recompute": concat(
			sched(1, 1), sched(1, 2), sched(1, 3), []byte{2, 0, 3, 3}),
		"cancel-then-stale-cancel": concat(
			sched(1, 7), []byte{2, 0, 2, 0, 3}),
		"cascade-preserves-ties": concat(
			sched(2, 100), sched(2, 100), sched(2, 100), sched(2, 99), []byte{3, 4}),
		"interleave-pop-schedule": concat(
			sched(1, 10), []byte{3}, sched(0, 0), sched(1, 5), []byte{4, 3}),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) { runDifferential(t, data) })
	}
}

func concat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestDifferentialRandom hammers the interpreter with seeded random
// operation streams: long schedules-heavy programs, cancel-heavy
// programs (the mostly-cancelled CV-timeout population), and mixed
// drains. Failures reduce to a byte string that drops straight into the
// fuzz corpus.
func TestDifferentialRandom(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(2000)
		data := make([]byte, n)
		rng.Read(data)
		if seed%3 == 0 {
			// Cancel-heavy: overwrite a third of ops with cancels.
			for i := 0; i+1 < len(data); i += 3 {
				data[i] = 2
			}
		}
		runDifferential(t, data)
	}
}

// TestDifferentialLongHorizon runs a sleeper-shaped workload: thousands
// of timers spread over multi-second horizons (every wheel level plus
// the heap tail), popped in full.
func TestDifferentialLongHorizon(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var data []byte
	for i := 0; i < 1500; i++ {
		raw := rng.Intn(1 << 24)
		data = append(data, 0, byte(rng.Intn(8)), byte(raw>>16), byte(raw>>8), byte(raw))
		if i%5 == 0 {
			data = append(data, 2, byte(rng.Intn(256))) // sprinkle cancels
		}
		if i%17 == 0 {
			data = append(data, 3)
		}
	}
	runDifferential(t, data)
}

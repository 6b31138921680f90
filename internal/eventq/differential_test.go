package eventq

import (
	"math/rand"
	"testing"

	"repro/internal/vclock"
)

// The differential battery: every operation sequence is applied to both the
// Queue (the heap beside its timer slots) and a naive reference model (a flat slice scanned for
// the (when, seq) minimum, with seqs numbered explicitly so a ticket
// reserved early orders ahead of later schedules, and a timer slot's re-arm
// modelled as a cancel plus a schedule under a fresh seq), asserting
// identical pop order, NextTime, Len, and Handle-generation and slot-armed
// semantics after every step. The deterministic tests below and
// FuzzWheelDifferential share one byte-stream interpreter, so a fuzz crasher
// replays directly as a test case.

// failer is the subset of testing.TB the interpreter needs, letting the
// fuzz target and the plain tests share it.
type failer interface {
	Helper()
	Fatalf(format string, args ...any)
}

// refEvent is one scheduled event, or one arming of a timer slot, in the
// reference model.
type refEvent struct {
	when vclock.Time
	seq  uint64
	live bool
	slot int // the armed slot's index, or -1 for a scheduled event
}

// maxDiffEvents bounds a single differential run so fuzz inputs cannot
// turn the O(n) reference scans into a timeout; maxDiffTickets bounds the
// unused tickets held at once; diffSlots is the fixed set of timer slots
// every run registers.
const (
	maxDiffEvents  = 2048
	maxDiffTickets = 256
	diffSlots      = 3
)

// runDifferential interprets data as an operation stream over a fresh
// Queue and the reference model.
//
// Stream grammar (total: any byte slice is a valid program):
//
//	op%8 == 0,1: schedule; a scale byte picks the temporal band (ties
//	             at one instant through the far future and past times),
//	             three raw bytes pick the offset within the band
//	op%8 == 2:   cancel the handle named by the next byte (possibly
//	             already popped or cancelled: must be a no-op; a slot's
//	             arming is skipped)
//	op%8 == 3:   pop one event
//	op%8 == 4:   drain the entire run of events at NextTime (a
//	             same-timestamp batch, ordered by seq alone)
//	op%8 == 5:   reserve a ticket and hold it (invariants still checked)
//	op%8 == 6:   arm (or re-arm) the slot the next byte names, at a time
//	             picked by a scale byte and three raw bytes as for a
//	             schedule. While tickets are held and op/8 is odd, the
//	             slot is armed under held ticket (op/16) mod held (ArmSeq),
//	             so it takes a seq smaller than everything scheduled since
//	             the ticket was taken
//	op%8 == 7:   disarm the slot the next byte names (possibly disarmed
//	             already: must be a no-op)
func runDifferential(t failer, data []byte) {
	t.Helper()
	var q Queue
	var ref []refEvent
	var handles []Handle
	var tickets []uint64 // reserved, not yet used by an arming
	var seq uint64       // the reference's own insertion counter
	lastPopped := -1
	now := vclock.Time(0)

	// The slots, each bound once to a callback naming its current
	// arming's reference entry.
	var slots [diffSlots]Timer
	var slotRef [diffSlots]int
	for k := range slots {
		k := k
		slotRef[k] = -1
		q.Register(&slots[k], func() { lastPopped = slotRef[k] })
	}

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
		if k := ref[want].slot; k >= 0 {
			if slots[k].Armed() {
				t.Fatalf("slot %d still armed after firing", k)
			}
		} else if handles[want].Valid() {
			t.Fatalf("handle of popped event #%d still valid", want)
		}
		if when > now {
			now = when
		}
	}

	// pickWhen reads a scale byte and three raw bytes and turns them into
	// a timestamp in the band the scale names.
	pickWhen := func() vclock.Time {
		scale := next()
		raw := int64(next())<<16 | int64(next())<<8 | int64(next())
		var dt int64
		switch scale % 8 {
		case 0:
			dt = raw % 4 // same-timestamp batches
		case 1:
			dt = raw % 64 // under 64 µs
		case 2:
			dt = raw % 4096 // under ~4.1 ms
		case 3:
			dt = raw % (1 << 18) // under ~262 ms
		case 4:
			dt = raw % (1 << 24) // under ~16.8 s
		case 5:
			dt = 1<<24 + raw // far future
		case 6:
			dt = -raw // past timestamp
		case 7:
			dt = raw%260*63 + 1 // strides of 63 µs
		}
		return now.Add(vclock.Duration(dt))
	}

	for pos < len(data) {
		switch op := next(); op % 8 {
		case 0, 1:
			if len(ref) >= maxDiffEvents {
				continue
			}
			when := pickWhen()
			id := len(ref)
			fn := func() { lastPopped = id }
			h := q.Schedule(when, fn)
			if !h.Valid() {
				t.Fatalf("fresh handle for event #%d invalid", id)
			}
			handles = append(handles, h)
			ref = append(ref, refEvent{when: when, seq: seq, live: true, slot: -1})
			seq++
		case 2:
			if len(handles) == 0 {
				continue
			}
			i := int(next()) % len(handles)
			if ref[i].slot >= 0 {
				continue
			}
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
		case 6:
			if len(ref) >= maxDiffEvents {
				continue
			}
			k := int(next()) % diffSlots
			when := pickWhen()
			if i := slotRef[k]; i >= 0 {
				ref[i].live = false // a re-arm cancels the pending arming
			}
			slotRef[k] = len(ref)
			var s uint64
			if op/8%2 == 1 && len(tickets) > 0 {
				j := int(op/16) % len(tickets)
				s = tickets[j]
				tickets = append(tickets[:j], tickets[j+1:]...)
				slots[k].ArmSeq(when, s)
			} else {
				s = seq
				seq++
				slots[k].Arm(when)
			}
			if !slots[k].Armed() || slots[k].When() != when {
				t.Fatalf("slot %d armed for %v: Armed = %v, When = %v",
					k, when, slots[k].Armed(), slots[k].When())
			}
			handles = append(handles, Handle{})
			ref = append(ref, refEvent{when: when, seq: s, live: true, slot: k})
		case 7:
			k := int(next()) % diffSlots
			if i := slotRef[k]; i >= 0 {
				ref[i].live = false
			}
			slotRef[k] = -1
			slots[k].Disarm()
			if slots[k].Armed() {
				t.Fatalf("slot %d still armed after Disarm", k)
			}
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

// TestDifferentialTargeted drives hand-built sequences: timestamps either
// side of the 64 µs, ~4.1 ms, ~262 ms and ~16.8 s boundaries (the level
// and horizon seams of the timing wheel this queue replaced, kept as
// inputs), same-timestamp batches, cancel-of-minimum, slot/event ties,
// slots armed under held tickets, and past timestamps.
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
		"slot-ties-level0-batch": concat(
			sched(1, 10), arm(0, 1, 10), sched(1, 10), []byte{4}),
		"slot-rearm-moves-behind-tie": concat(
			arm(0, 1, 10), sched(1, 10), arm(0, 1, 10), []byte{4}),
		"slot-rearm-earliest-at-its-instant": concat(
			arm(0, 1, 10), arm(1, 1, 10), arm(0, 1, 10), []byte{3, 3}),
		"slot-armed-under-held-ticket": concat(
			[]byte{5}, sched(1, 10), armTicketed(0, 0, 1, 10), []byte{4}),
		"slot-rearmed-under-older-ticket": concat(
			[]byte{5, 5}, arm(0, 1, 10), armTicketed(1, 1, 1, 10), armTicketed(0, 0, 1, 10), []byte{4}),
		"slot-disarm-min-rescans": concat(
			arm(0, 1, 5), arm(1, 1, 3), arm(2, 1, 3), disarm(1), []byte{3, 3}, disarm(1)),
		"slot-pop-crosses-block-boundary": concat(
			sched(3, 4200), arm(0, 3, 4150), []byte{3}, sched(1, 3), []byte{3, 3}),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) { runDifferential(t, data) })
	}
}

// arm and disarm encode the slot ops: arm slot k at the time a schedule
// with the same scale and raw offset would take; disarm slot k.
func arm(k, scale byte, raw int) []byte {
	return []byte{6, k, scale, byte(raw >> 16), byte(raw >> 8), byte(raw)}
}

func disarm(k byte) []byte { return []byte{7, k} }

// armTicketed arms slot k under held ticket j (mod held) with ArmSeq.
func armTicketed(k, j, scale byte, raw int) []byte {
	return []byte{6 + 8 + 16*j, k, scale, byte(raw >> 16), byte(raw >> 8), byte(raw)}
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
// of timers spread from microseconds to past 16 s ahead, popped in
// full.
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

// Package eventq implements the deterministic timestamp-ordered event
// queue at the heart of the discrete-event thread simulator. Events with
// equal timestamps are delivered in insertion order (FIFO), which keeps
// simulations reproducible run to run.
//
// Scheduled events live in one indexed binary min-heap ordered by
// (timestamp, insertion sequence). Each event records its heap index, so
// Cancel removes it in O(log n) without a search. The per-request and
// per-feed timers live in Timer slots, so the heap holds a few dozen
// events at most (sleeps, block timeouts, the desktop input generators,
// the cluster's retries and hedges), where O(log n) is a handful of
// compares. The differential tests in this package pin the pop order
// against a naive sorted-list reference. Event structs are pooled and
// recycled, so a steady-state simulation allocates nothing in the
// scheduling hot path. Callers hold generation-checked Handles rather
// than raw pointers, which makes a stale Cancel (after the event fired or
// its struct was recycled) a safe no-op instead of a use-after-free.
//
// A timer that is set far more often than it fires, or a feed that keeps one
// entry of an ordered backlog queued at a time, can instead live in a
// caller-owned Timer slot (timer.go), registered once with its queue and
// bound to its callback once. Arming takes its seq from the same counter as
// Schedule and disarming takes none, so a slot pops exactly where the
// equivalent Schedule/Cancel pair would have put its event, and every other
// event keeps its (when, seq). A seq can also be taken ahead of the arming
// it orders: Reserve hands out the next number as a ticket, and ArmSeq arms
// a slot under it, so the slot pops exactly where an event scheduled at the
// moment of Reserve would have, ahead of anything scheduled since at the
// same timestamp. A caller can so hold a long ordered backlog outside the
// queue and feed it in one entry at a time without moving any event's
// position. The slots sit outside the heap: NextTime, PopDo, Len and Empty
// merge the earliest armed slot with the heap root by (when, seq).
package eventq

import "repro/internal/vclock"

// event is one scheduled occurrence. Event structs are owned and recycled
// by their Queue; callers refer to them through Handles.
type event struct {
	when vclock.Time
	do   func()
	seq  uint64 // insertion order, the FIFO tie-break at equal timestamps
	idx  int32  // heap index, or -1 when not queued
	gen  uint32 // bumped on every recycle; Handles must match to act
}

// Handle identifies one scheduled event. The zero Handle is invalid (and
// safe to Cancel). A Handle outlives its event harmlessly: once the event
// fires or is canceled, the struct is recycled under a new generation and
// the stale Handle no longer matches.
type Handle struct {
	e   *event
	gen uint32
}

// Valid reports whether h still names a queued event.
func (h Handle) Valid() bool {
	return h.e != nil && h.e.gen == h.gen && h.e.idx >= 0
}

// Queue is a priority queue of events ordered by (When, insertion order).
// The zero value is an empty queue ready to use.
type Queue struct {
	h []*event

	// Timer slots: the earliest armed one by (when, seq) or nil when none
	// is armed, the armed count, and every registered slot.
	slot   *Timer
	armed  int
	timers []*Timer

	free []*event // recycled event structs (event pooling)
	seq  uint64
}

// Len returns the number of queued events, armed timer slots included.
func (q *Queue) Len() int { return len(q.h) + q.armed }

// Empty reports whether no events remain.
func (q *Queue) Empty() bool { return q.Len() == 0 }

// Schedule enqueues fn to run at t and returns a handle that can cancel it.
func (q *Queue) Schedule(t vclock.Time, fn func()) Handle {
	var e *event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		e = &event{}
	}
	e.when, e.do, e.seq = t, fn, q.seq
	q.seq++
	e.idx = int32(len(q.h))
	q.h = append(q.h, e)
	q.up(int(e.idx))
	return Handle{e: e, gen: e.gen}
}

// Reserve takes the next insertion sequence number without queueing
// anything. The ticket orders a later Timer.ArmSeq call as if the slot
// had been armed now.
func (q *Queue) Reserve() uint64 {
	seq := q.seq
	q.seq++
	return seq
}

// Cancel removes the event named by h from the queue. Cancel on the zero
// Handle, an already-fired event, or an already-canceled event is a no-op.
func (q *Queue) Cancel(h Handle) {
	if !h.Valid() {
		return
	}
	q.remove(int(h.e.idx))
}

// NextTime returns the timestamp of the earliest event or armed timer
// slot, or vclock.Never if the queue is empty. The drivers call it once
// per event and the cluster once per barrier, so the slots cost it one
// compare against the cached earliest slot.
func (q *Queue) NextTime() vclock.Time {
	t := vclock.Never
	if len(q.h) > 0 {
		t = q.h[0].when
	}
	if s := q.slot; s != nil && s.when < t {
		t = s.when
	}
	return t
}

// PopDo removes the earliest event or armed timer slot and returns its
// callback and timestamp. An event struct is recycled, and a slot
// disarmed, before the callback runs, so the callback itself may
// Schedule without growing the pool or re-arm its own slot. ok is false
// when the queue is empty.
func (q *Queue) PopDo() (do func(), when vclock.Time, ok bool) {
	if s := q.slot; s != nil && (len(q.h) == 0 || s.when < q.h[0].when || s.when == q.h[0].when && s.seq < q.h[0].seq) {
		s.Disarm()
		return s.do, s.when, true
	}
	if len(q.h) == 0 {
		return nil, 0, false
	}
	e := q.h[0]
	do, when = e.do, e.when
	q.remove(0)
	return do, when, true
}

// remove unlinks the event at heap index i, invalidates every outstanding
// Handle to it and returns the struct to the pool.
func (q *Queue) remove(i int) {
	e := q.h[i]
	n := len(q.h) - 1
	last := q.h[n]
	q.h[n] = nil
	q.h = q.h[:n]
	if i != n {
		q.h[i] = last
		last.idx = int32(i)
		if !q.up(i) {
			q.down(i)
		}
	}
	e.gen++
	e.do = nil
	e.idx = -1
	q.free = append(q.free, e)
}

// less orders events by (when, seq): earliest first, FIFO at ties.
func (q *Queue) less(i, j int) bool {
	a, b := q.h[i], q.h[j]
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// up sifts the event at index i toward the root; it reports whether the
// event moved.
func (q *Queue) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

// down sifts the event at index i toward the leaves.
func (q *Queue) down(i int) {
	n := len(q.h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && q.less(r, l) {
			min = r
		}
		if !q.less(min, i) {
			return
		}
		q.swap(i, min)
		i = min
	}
}

func (q *Queue) swap(i, j int) {
	q.h[i], q.h[j] = q.h[j], q.h[i]
	q.h[i].idx = int32(i)
	q.h[j].idx = int32(j)
}

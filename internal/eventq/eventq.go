// Package eventq implements the deterministic timestamp-ordered event
// queue at the heart of the discrete-event thread simulator. Events with
// equal timestamps are delivered in insertion order (FIFO), which keeps
// simulations reproducible run to run.
//
// The queue is a hybrid of a hierarchical timing wheel and an indexed
// binary min-heap, split by temporal distance:
//
//   - Near-future events — the dense population: client timeouts,
//     retries and hedges, the thousands of sleeper timers and
//     mostly-cancelled 50 ms CV timeouts the paper's worlds generate —
//     live in a four-level timing wheel (64 slots per level, 1 µs ticks,
//     ~16.8 virtual seconds of horizon). Schedule and Cancel are O(1)
//     pointer splices into per-slot intrusive lists, and a run of
//     same-timestamp events drains from a single level-0 bucket without
//     any heap traffic: one bitmap lookup finds the bucket, then each pop
//     is an O(1) head unlink.
//   - Far-future events (beyond the wheel horizon) and events scheduled in
//     the past stay in the indexed min-heap — the sparse tail for which
//     O(log n) is cheap and wheel cascading would be wasted work.
//
// Pop order is strictly (timestamp, insertion sequence) across both
// halves, so the hybrid is observably identical to a single heap; the
// differential tests in this package pin that equivalence against a naive
// sorted-list reference. Event structs are pooled and recycled, so a
// steady-state simulation — millions of timer events — allocates nothing
// in the scheduling hot path. Callers hold generation-checked Handles
// rather than raw pointers, which makes a stale Cancel (after the event
// fired or its struct was recycled) a safe no-op instead of a
// use-after-free.
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
// position. Only slots ever take an old seq; the wheel and the heap receive
// fresh ones, so a bucket's append order is its seq order. The slots sit
// outside the wheel and the heap: NextTime, PopDo, Len and Empty merge the
// earliest armed slot with the two halves by (when, seq), and a slot pop
// moves the watermark the way a heap pop does.
package eventq

import (
	"math/bits"

	"repro/internal/vclock"
)

// Wheel geometry: four levels of 64 slots. Level L slots span 2^(6L)
// ticks (1 µs, 64 µs, ~4.1 ms, ~262 ms), so the wheel covers events up
// to 2^24 µs ≈ 16.8 virtual seconds ahead of the watermark — beyond the
// paper's 50 ms CV timeouts and multi-second sleeper population, with
// the heap absorbing the sparse remainder.
const (
	slotBits   = 6
	wheelSlots = 1 << slotBits // 64
	slotMask   = wheelSlots - 1
	numLevels  = 4
	wheelBits  = slotBits * numLevels // 24: the wheel's reach in ticks
)

// Location codes for event.lvl: 0..numLevels-1 are wheel levels.
const (
	locFree = -1 // not queued (free pool or never scheduled)
	locHeap = -2 // in the far-future/past min-heap
)

// event is one scheduled occurrence. Event structs are owned and recycled
// by their Queue; callers refer to them through Handles.
type event struct {
	when vclock.Time
	do   func()
	seq  uint64 // insertion order, the FIFO tie-break at equal timestamps

	// Wheel linkage: intrusive doubly-linked bucket list, O(1) cancel.
	next, prev *event

	idx int32  // heap index while lvl == locHeap, -1 otherwise
	lvl int8   // locFree, locHeap, or the wheel level holding the event
	gen uint32 // bumped on every recycle; Handles must match to act
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
	return h.e != nil && h.e.gen == h.gen && h.e.lvl != locFree
}

// bucket is one wheel slot: an intrusive FIFO of events. Within a level-0
// bucket every event shares one timestamp, so FIFO order is exactly the
// (when, seq) order; higher-level buckets are unsorted holding pens whose
// FIFO order preserves relative seq among equal timestamps across
// cascades.
type bucket struct {
	head, tail *event
}

// Queue is a priority queue of events ordered by (When, insertion order).
// The zero value is an empty queue ready to use.
type Queue struct {
	// cur is the wheel watermark: the timestamp of the last popped event
	// (never decreasing). Every wheel event satisfies when >= cur; the
	// level of a queued wheel event is determined by when XOR cur at
	// placement time, and buckets cascade toward level 0 exactly when the
	// watermark enters their window, so level-0 buckets always hold a
	// single timestamp within the watermark's 64-tick window.
	cur vclock.Time

	occupied [numLevels]uint64 // per-level slot-occupancy bitmaps

	// Cached earliest wheel event. Finding it is O(1) while level 0 is
	// occupied (one TrailingZeros on the bitmap); when the minimum sits in
	// a higher level the bucket is scanned once and the result cached
	// until that exact event is popped or cancelled.
	minEv    *event
	minValid bool

	wheelLen int // events in the wheel
	h        []*event

	// Timer slots: the earliest armed one by (when, seq) or nil when none
	// is armed, the armed count, and every registered slot.
	slot   *Timer
	armed  int
	timers []*Timer

	free []*event // recycled event structs (event pooling)
	seq  uint64

	// The 4 KB of buckets come last, so the fields NextTime and PopDo
	// read share the queue's first cache lines.
	wheel [numLevels][wheelSlots]bucket
}

// Len returns the number of queued events, armed timer slots included.
func (q *Queue) Len() int { return q.wheelLen + len(q.h) + q.armed }

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
		e = &event{idx: -1, lvl: locFree}
	}
	e.when, e.do, e.seq = t, fn, q.seq
	q.seq++
	q.place(e)
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

// place routes e to the wheel or the heap by temporal distance from the
// watermark. Past timestamps (t < cur, impossible from the simulator but
// legal API inputs) and far-future timestamps take the heap; everything
// within the wheel's reach takes an O(1) bucket append.
func (q *Queue) place(e *event) {
	t := e.when
	if t < q.cur || uint64(t^q.cur) >= 1<<wheelBits {
		q.heapPush(e)
		return
	}
	lvl := levelOf(uint64(t ^ q.cur))
	b := &q.wheel[lvl][int(t>>(slotBits*lvl))&slotMask]
	e.lvl = int8(lvl)
	e.prev = b.tail
	e.next = nil
	if b.tail != nil {
		b.tail.next = e
	} else {
		b.head = e
		q.occupied[lvl] |= 1 << (uint(t>>(slotBits*lvl)) & slotMask)
	}
	b.tail = e
	q.wheelLen++
	if q.minValid && t < q.minEv.when {
		q.minEv = e
	}
}

// levelOf maps a nonzero-extended XOR distance (< 2^wheelBits) to its
// wheel level: the highest 6-bit digit in which t and cur differ.
func levelOf(d uint64) int {
	// d < 2^24 here; (bits.Len64(d|1)-1)/slotBits buckets the leading bit.
	return (bits.Len64(d|1) - 1) / slotBits
}

// Cancel removes the event named by h from the queue. Cancel on the zero
// Handle, an already-fired event, or an already-canceled event is a no-op.
func (q *Queue) Cancel(h Handle) {
	if !h.Valid() {
		return
	}
	e := h.e
	if e.lvl == locHeap {
		q.heapRemove(int(e.idx))
	} else {
		q.wheelUnlink(e)
	}
	q.recycle(e)
}

// wheelUnlink splices e out of its bucket, clearing the occupancy bit
// when the bucket empties and invalidating the min cache if e was the
// cached minimum.
func (q *Queue) wheelUnlink(e *event) {
	lvl := int(e.lvl)
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		q.wheel[lvl][int(e.when>>(slotBits*lvl))&slotMask].head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		q.wheel[lvl][int(e.when>>(slotBits*lvl))&slotMask].tail = e.prev
	}
	if q.wheel[lvl][int(e.when>>(slotBits*lvl))&slotMask].head == nil {
		q.occupied[lvl] &^= 1 << (uint(e.when>>(slotBits*lvl)) & slotMask)
	}
	e.next, e.prev = nil, nil
	q.wheelLen--
	if q.minValid && e == q.minEv {
		q.minValid = false
		q.minEv = nil
	}
}

// wheelMin returns the earliest wheel event in (when, seq) order, or nil
// when the wheel is empty. While level 0 is occupied this is one bitmap
// TrailingZeros plus a head load; otherwise the first occupied bucket of
// the shallowest occupied level is scanned once and the answer cached.
func (q *Queue) wheelMin() *event {
	if q.minValid {
		return q.minEv
	}
	if q.wheelLen == 0 {
		return nil
	}
	if m := q.occupied[0]; m != 0 {
		// Level-0 buckets hold one timestamp each within the watermark's
		// window, appended in seq order: the head of the first occupied
		// slot is the exact minimum.
		e := q.wheel[0][bits.TrailingZeros64(m)].head
		q.minEv, q.minValid = e, true
		return e
	}
	for lvl := 1; lvl < numLevels; lvl++ {
		m := q.occupied[lvl]
		if m == 0 {
			continue
		}
		// Higher-level buckets are unsorted across timestamps; scan the
		// earliest bucket for the (when, seq) minimum. The scan is paid
		// once per cache invalidation, and cascading on pop moves the
		// whole bucket to cheaper levels immediately afterwards.
		min := q.wheel[lvl][bits.TrailingZeros64(m)].head
		for e := min.next; e != nil; e = e.next {
			if e.when < min.when || (e.when == min.when && e.seq < min.seq) {
				min = e
			}
		}
		q.minEv, q.minValid = min, true
		return min
	}
	return nil
}

// NextTime returns the timestamp of the earliest event or armed timer
// slot, or vclock.Never if the queue is empty. The drivers call it once
// per event and the cluster once per barrier, so the slots cost it one
// compare against the cached earliest slot.
func (q *Queue) NextTime() vclock.Time {
	t := vclock.Never
	if w := q.wheelMin(); w != nil {
		t = w.when
	}
	if len(q.h) > 0 && q.h[0].when < t {
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
	// (when, seq) decides among the wheel, the heap and the slots, so the
	// hybrid pops in exactly the order a single heap would.
	e := q.wheelMin()
	if len(q.h) > 0 && (e == nil || q.h[0].when < e.when || q.h[0].when == e.when && q.h[0].seq < e.seq) {
		e = q.h[0]
	}
	if s := q.slot; s != nil && (e == nil || s.when < e.when || s.when == e.when && s.seq < e.seq) {
		return q.popSlot(s)
	}
	if e == nil {
		return nil, 0, false
	}
	do, when = e.do, e.when
	if e.lvl == locHeap {
		q.heapRemove(0)
		if when > q.cur {
			// Heap pop: the watermark may cross wheel block boundaries
			// without touching the popped bucket, so re-normalize.
			q.advanceTo(when)
		}
	} else {
		q.popWheelMin(e)
		if when > q.cur {
			q.cur = when
		}
	}
	q.recycle(e)
	return do, when, true
}

// advanceTo moves the watermark to t after a heap or slot pop. Wheel pops
// keep the level invariant by construction (the popped bucket is exactly the
// one whose window the watermark enters), but a heap pop — a far-future
// event maturing, or a past timestamp racing ahead of a sparse wheel — or a
// slot pop can advance the watermark across block boundaries without
// touching the wheel. Any bucket sitting under the new watermark's slot at a
// level whose boundary was crossed may now hold events whose XOR distance
// shrank below that level, which would break the level-ordered minimum scan;
// cascading those buckets restores the invariant that every queued event's
// level matches its distance from the current watermark.
func (q *Queue) advanceTo(t vclock.Time) {
	old := q.cur
	q.cur = t
	if q.wheelLen == 0 {
		return
	}
	for lvl := 1; lvl < numLevels; lvl++ {
		shift := uint(slotBits * lvl)
		if old>>shift == t>>shift {
			// No boundary crossed at this level — nor at any higher one.
			break
		}
		slot := int(t>>shift) & slotMask
		if q.occupied[lvl]&(1<<uint(slot)) != 0 {
			q.cascade(lvl, slot)
		}
	}
}

// popWheelMin removes the wheel's minimum event w. If w sits above level
// 0 its whole bucket cascades down first: the watermark advances to
// w.when (the pop instant — by then no earlier event can exist), and
// every event in the bucket re-places into a strictly lower level, in
// FIFO order so equal-timestamp runs keep their seq order. After the
// cascade w is guaranteed to head a level-0 bucket.
func (q *Queue) popWheelMin(w *event) {
	if w.lvl > 0 {
		q.cur = w.when
		q.cascade(int(w.lvl), int(w.when>>(slotBits*int(w.lvl)))&slotMask)
	}
	q.wheelUnlink(w)
}

// cascade redistributes one bucket's events toward level 0 after the
// watermark entered the bucket's window. Relative order is preserved per
// destination bucket, which keeps equal-timestamp FIFO delivery intact.
func (q *Queue) cascade(lvl, slot int) {
	b := &q.wheel[lvl][slot]
	e := b.head
	b.head, b.tail = nil, nil
	q.occupied[lvl] &^= 1 << uint(slot)
	q.minValid = false
	q.minEv = nil
	for e != nil {
		next := e.next
		e.next, e.prev = nil, nil
		q.wheelLen--
		q.place(e)
		e = next
	}
}

// recycle invalidates every outstanding Handle to e and returns the
// struct to the pool.
func (q *Queue) recycle(e *event) {
	e.gen++
	e.do = nil
	e.idx = -1
	e.lvl = locFree
	e.next, e.prev = nil, nil
	q.free = append(q.free, e)
}

// --- far-future / past-timestamp min-heap (indexed, pooled) ---

// heapPush adds e to the heap half.
func (q *Queue) heapPush(e *event) {
	e.lvl = locHeap
	e.idx = int32(len(q.h))
	q.h = append(q.h, e)
	q.up(int(e.idx))
}

// heapRemove unlinks the event at heap index i.
func (q *Queue) heapRemove(i int) {
	n := len(q.h) - 1
	last := q.h[n]
	q.h[n] = nil
	q.h = q.h[:n]
	if i == n {
		return
	}
	q.h[i] = last
	last.idx = int32(i)
	if !q.up(i) {
		q.down(i)
	}
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

package eventq

import "repro/internal/vclock"

// Timer is a caller-owned timer slot: one pending occurrence at a time,
// bound to its queue and its callback once by Register and then armed,
// re-armed and disarmed in place. It suits a timer that is set far more
// often than it fires, such as a CPU's quantum expiry or the completion
// of the compute grant running on it, where a Schedule/Cancel pair per
// setting would splice an event into and out of the wheel every time,
// and a driver feeding an ordered backlog into the queue one entry at a
// time, each under the ticket Reserve gave it.
//
// Ordering is exactly that of the Schedule/Cancel pair it replaces: Arm
// takes the next insertion sequence number from the queue's counter, as
// Schedule does, and ArmSeq takes a Reserve ticket, as a Schedule made
// when the ticket was taken would have. At equal timestamps an armed slot
// therefore pops after everything scheduled or ticketed before its number
// was taken and before everything after. A re-arm is a disarm plus a
// fresh arming; Disarm takes no number.
//
// The queue keeps its earliest armed slot cached, so arming a slot that
// does not move the minimum is O(1). Disarming the earliest slot, or
// re-arming it later, rescans every slot registered with the queue, so
// slots are meant for a handful of timers per queue (two per simulated
// CPU, one for a cluster instance's inbox, one for an aging policy's
// tick, one per workload cohort's arrival stream, and a cluster driver's
// next arrival and client-timeout FIFO), not for a timer population.
type Timer struct {
	q     *Queue
	do    func()
	when  vclock.Time
	seq   uint64
	armed bool
}

// Register binds t to q and to the callback fn, which PopDo returns when
// the slot fires. t starts disarmed. A Timer is registered once, with
// one queue, and must not move or be copied afterwards.
func (q *Queue) Register(t *Timer, fn func()) {
	t.q, t.do = q, fn
	q.timers = append(q.timers, t)
}

// Armed reports whether t is waiting to fire.
func (t *Timer) Armed() bool { return t.armed }

// When returns the instant t was last armed for.
func (t *Timer) When() vclock.Time { return t.when }

// Arm sets t to fire at when under a fresh insertion sequence number,
// replacing any earlier arming.
func (t *Timer) Arm(when vclock.Time) { t.ArmSeq(when, t.q.Reserve()) }

// ArmSeq sets t to fire at when under the insertion sequence number seq,
// which must come from Reserve and be used at most once, replacing any
// earlier arming.
func (t *Timer) ArmSeq(when vclock.Time, seq uint64) {
	q := t.q
	oldWhen, oldSeq := t.when, t.seq
	t.when, t.seq = when, seq
	if !t.armed {
		t.armed = true
		q.armed++
	}
	switch m := q.slot; {
	case m == nil || m != t && (when < m.when || when == m.when && seq < m.seq):
		q.slot = t
	case m == t && (when > oldWhen || when == oldWhen && seq > oldSeq):
		// The earliest slot moved later: another slot may lead now.
		q.scanSlots()
	}
}

// Disarm cancels t's pending firing. Disarming a disarmed slot is a
// no-op.
func (t *Timer) Disarm() {
	if !t.armed {
		return
	}
	t.armed = false
	q := t.q
	q.armed--
	if q.slot == t {
		q.scanSlots()
	}
}

// scanSlots recomputes the earliest armed slot by (when, seq).
func (q *Queue) scanSlots() {
	var m *Timer
	if q.armed > 0 {
		for _, t := range q.timers {
			if t.armed && (m == nil || t.when < m.when || t.when == m.when && t.seq < m.seq) {
				m = t
			}
		}
	}
	q.slot = m
}

// popSlot fires s: the slot is disarmed before its callback runs, and the
// watermark moves to the firing instant the way a heap pop moves it,
// since the wheel's buckets were not touched on the way.
func (q *Queue) popSlot(s *Timer) (do func(), when vclock.Time, ok bool) {
	when = s.when
	s.Disarm()
	if when > q.cur {
		q.advanceTo(when)
	}
	return s.do, when, true
}

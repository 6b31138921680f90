package paradigm

import (
	"repro/internal/sim"
	"repro/internal/vclock"
)

// MBQueue ("Menu/Button Queue") encapsulates the serializer paradigm of
// §4.6: "a queue and a thread that processes the work on the queue. The
// queue acts as a point of serialization in the system." Mouse clicks and
// keystrokes cause procedures to be enqueued for the context; the thread
// then calls the procedures in the order received. The paper notes this
// queue-plus-thread is the only paradigm in the Macintosh, Microsoft
// Windows and X programming models.
type MBQueue struct {
	w      *sim.World
	dev    *DeviceQueue
	thread *sim.Thread
	served int
}

// queued is one serialized work item.
type queued struct {
	fn   func(t *sim.Thread)
	cost vclock.Duration
}

// NewMBQueue creates a serialization context and forks its processing
// thread.
func NewMBQueue(w *sim.World, reg *Registry, name string, pri sim.Priority) *MBQueue {
	reg.registerInternal(KindSerializer)
	if pri == 0 {
		pri = sim.PriorityNormal
	}
	q := &MBQueue{w: w, dev: NewDeviceQueue(w, name+".q")}
	q.thread = w.Spawn(name, pri, func(t *sim.Thread) any {
		for {
			item, ok := q.dev.Get(t)
			if !ok {
				return q.served
			}
			work := item.(queued)
			t.Compute(work.cost)
			if work.fn != nil {
				work.fn(t)
			}
			q.served++
		}
	})
	return q
}

// Enqueue adds work from thread context; cost is CPU charged when it
// runs. Items are processed strictly in arrival order regardless of which
// context enqueued them.
func (q *MBQueue) Enqueue(t *sim.Thread, cost vclock.Duration, fn func(t *sim.Thread)) {
	_ = t // the enqueue itself is lock-free: the queue is single-consumer
	q.dev.Push(queued{fn: fn, cost: cost})
}

// EnqueueExternal adds work from driver context (an input event).
func (q *MBQueue) EnqueueExternal(cost vclock.Duration, fn func(t *sim.Thread)) {
	q.dev.Push(queued{fn: fn, cost: cost})
}

// Close shuts the serializer down once the queue drains.
func (q *MBQueue) Close() { q.dev.CloseDevice() }

// Served returns the number of procedures called so far.
func (q *MBQueue) Served() int { return q.served }

// Thread returns the serializing thread.
func (q *MBQueue) Thread() *sim.Thread { return q.thread }

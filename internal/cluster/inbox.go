package cluster

import (
	"repro/internal/vclock"
)

// injection is one request on its way into an instance's world: the
// instant it arrives, the world's event-order ticket taken when it was
// routed, and what the server needs to queue it.
type injection struct {
	at      vclock.Time
	ticket  uint64
	service vclock.Duration
	token   uint64
	session int32
	tracked bool
}

// inboxBlockLen is the number of injections per inbox block.
const inboxBlockLen = 256

// inboxBlock holds its one pointer first, so the collector scans only
// that word of the block: injections hold no pointers.
type inboxBlock struct {
	next *inboxBlock
	ents [inboxBlockLen]injection
}

// inbox is an instance's ordered FIFO of injections: a list of
// fixed-size blocks, so it grows without copying, and drained blocks
// are kept for reuse. The driver pushes in routing order, which is
// (instant, ticket) order, and the instance's pump pops from the front.
type inbox struct {
	head, tail *inboxBlock
	r, w       int         // next read slot in head, next write slot in tail
	spare      *inboxBlock // drained blocks
}

func (b *inbox) push(e injection) {
	if b.tail == nil || b.w == inboxBlockLen {
		blk := b.spare
		if blk != nil {
			b.spare = blk.next
			blk.next = nil
		} else {
			blk = new(inboxBlock)
		}
		if b.tail == nil {
			b.head, b.r = blk, 0
		} else {
			b.tail.next = blk
		}
		b.tail, b.w = blk, 0
	}
	b.tail.ents[b.w] = e
	b.w++
}

// peek returns the oldest injection, or nil when the inbox is empty.
func (b *inbox) peek() *injection {
	if b.head == nil || b.head == b.tail && b.r == b.w {
		return nil
	}
	return &b.head.ents[b.r]
}

// pop drops the oldest injection; the inbox must not be empty.
func (b *inbox) pop() {
	b.r++
	if b.r < inboxBlockLen {
		return
	}
	blk := b.head
	b.head, b.r = blk.next, 0
	if b.head == nil {
		b.tail = nil
	}
	blk.next = b.spare
	b.spare = blk
}

// send queues one request for delivery into the world at t. It takes
// the world's ticket now, where a World.At call would have taken its
// place in the event order, so the request reaches the server at the
// same point of the world's event stream as that call's callback would.
func (in *instance) send(t vclock.Time, session int, service vclock.Duration, token uint64, tracked bool) {
	in.box.push(injection{
		at:      t,
		ticket:  in.w.Ticket(),
		service: service,
		token:   token,
		session: int32(session),
		tracked: tracked,
	})
}

// arm queues the inbox's oldest injection in the world, by arming the
// pump slot under the injection's ticket, unless one is queued already.
// Only the oldest is ever queued: the world pops events in (instant,
// ticket) order, the inbox holds its entries in that order, so the rest
// cannot be due before it.
func (in *instance) arm() {
	if in.pump.Armed() {
		return
	}
	if e := in.box.peek(); e != nil {
		in.w.ArmTicket(&in.pump, e.at, e.ticket)
	}
}

// deliver is the pump's callback: it hands the oldest injection to the
// server and arms the next one, exactly one world event per request.
func (in *instance) deliver() {
	e := *in.box.peek()
	in.box.pop()
	if e.tracked {
		in.srv.InjectTracked(int(e.session), e.service, e.token)
	} else {
		in.srv.Inject(int(e.session), e.service)
	}
	in.arm()
}

// advance arms the inbox and runs the world to t, unless the world has
// run before and has no event due by t. Run returns only at a settled
// fixed point, and between barriers the driver touches a world only
// through its inbox (armed above, so a due injection counts as an
// event) and Server.CancelQueued, so running such a world would change
// nothing but its clock and horizon. A world that never ran still has
// its first settle to do, and must do it at this horizon. The closing
// advance runs every world, as each has its pool's Close due, so every
// world still ends at the clock, and the Probe at the event and
// virtual-time totals, that running every world at every barrier gives.
func (in *instance) advance(t vclock.Time) {
	in.arm()
	if in.ran && in.w.NextEvent() > t {
		return
	}
	in.ran = true
	in.w.Run(t)
}

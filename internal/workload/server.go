package workload

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/vclock"
)

// This file holds Server, the one session pool every request-serving
// workload runs on: the §4 general-pump shape, where an interrupt-style
// driver posts requests to per-session queues and each session thread
// drains its own. The pool is passive — it never draws an arrival,
// picks a session or sizes a demand. In a fleet the cluster layer owns
// those decisions (routing, admission, service distributions); in a
// single world the shared arrival generator (cohorts.go) does. Every
// open-loop spec kind compiles onto Server (see build.go).
//
// Every session runs one body, (*srvSession).Step. A plain session is
// a stackless sim thread: the driver calls the step on its own stack,
// so a pool of thousands of idle sessions holds no coroutine and no
// stack. A session feeding a pipeline's next stage hands each request
// over through a monitor, which parks mid-call, so it runs the same
// step from a coroutine-backed Proc instead.

// NameTable interns per-session thread names so a fleet of N instances
// shares one table of S strings instead of allocating N×S copies —
// session i is "echo-i" in every instance, and the table is immutable
// after construction, so concurrent instance builds may share it freely.
type NameTable struct {
	names []string
}

// NewNameTable builds the table for n sessions named prefix-0..prefix-n-1.
func NewNameTable(prefix string, n int) *NameTable {
	t := &NameTable{names: make([]string, n)}
	for i := range t.names {
		t.names[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return t
}

// Name returns the interned name of session i.
func (t *NameTable) Name(i int) string { return t.names[i] }

// Len returns the number of interned names.
func (t *NameTable) Len() int { return len(t.names) }

// srvReq is one injected request: when it arrived at the instance and
// how much CPU it demands. The demand travels with the request (rather
// than being a server constant) so the driver can impose heavy-tailed
// service distributions without the server knowing. Tracked requests
// (InjectTracked) additionally carry the driver's token and the server
// epoch they were injected in, so a crash between injection and
// completion is detectable at completion time.
type srvReq struct {
	born    vclock.Time
	service vclock.Duration
	token   uint64
	epoch   int
	tracked bool
}

// Completion is one tracked request's outcome, reported back to the
// driving cluster: the driver's token, the virtual completion time, and
// whether the response was actually delivered (OK is false when the
// instance crashed after admitting the request — the work may even have
// been done, but the answer died with the machine).
type Completion struct {
	Token uint64
	At    vclock.Time
	OK    bool
}

// srvSession is one session thread plus its driver-owned request queue:
// an interrupt handler posting work to a server thread. It is also the
// thread's body (Step). While serving is set the session is computing
// q[head-1], which Crash keeps in place for the completion to read.
// The struct stays at 48 bytes: a pool of 10k sessions is one slab.
type srvSession struct {
	srv     *Server
	th      *sim.Thread
	q       []srvReq
	head    int32
	serving bool
}

// Server is an externally-driven session pool. All methods must be
// called from driver context (between Run steps, or inside World.At /
// World.After callbacks) — never from another goroutine.
type Server struct {
	w        *sim.World
	Stats    LoadStats
	sessions []srvSession // one slab, never reallocated: threads hold &sessions[i]
	pending  int
	closed   bool
	firstAt  vclock.Time
	lastDone vclock.Time

	// outs makes sessions pipeline chains' first stages: each passes
	// its served requests' arrival times to its buffer instead of
	// completing them, and closes the buffer when it exits.
	outs map[*srvSession]*loadBuffer

	// Fault-model state (all driven from driver context; see Crash,
	// Restore, StallUntil, CancelQueued). epoch counts crashes so a
	// request injected before a crash fails even if its compute finishes
	// after a restart.
	down       bool
	epoch      int
	stallUntil vclock.Time
	cancelSet  map[uint64]bool
	events     []Completion // tracked completions since the last Drain
	drained    []Completion // the buffer the last Drain returned
	dropped    int64
	failed     int64

	// slo, when set, is the pool's latency target: completions within it
	// count as on time. unit, when set, makes every session stamp the
	// scheduler-visible SLO metadata (see stamp).
	slo    vclock.Duration
	unit   vclock.Duration
	onTime int64
}

// startServer spawns sessions session threads at prio (PriorityNormal
// when invalid), naming them from names, which must hold at least
// sessions entries. The pool serves injected requests until Close.
func startServer(w *sim.World, names *NameTable, sessions int, prio sim.Priority) *Server {
	if sessions < 1 || names.Len() < sessions {
		panic(fmt.Sprintf("workload: bad Server population %d (names %d)", sessions, names.Len()))
	}
	if !prio.Valid() {
		prio = sim.PriorityNormal
	}
	s := newServer(w, sessions)
	for i := 0; i < sessions; i++ {
		s.addSession(names.Name(i), prio, nil)
	}
	return s
}

// newServer returns an empty pool with room for sessions sessions.
func newServer(w *sim.World, sessions int) *Server {
	return &Server{w: w, sessions: make([]srvSession, 0, sessions)}
}

// addSession spawns one more session thread feeding out (nil for a
// session that completes its requests); callers that interleave other
// spawns with the pool's (the pipeline kind) grow it one by one.
func (s *Server) addSession(name string, prio sim.Priority, out *loadBuffer) {
	if len(s.sessions) == cap(s.sessions) {
		panic("workload: Server session slab is full")
	}
	s.sessions = append(s.sessions, srvSession{srv: s})
	sess := &s.sessions[len(s.sessions)-1]
	if out == nil {
		sess.th = s.w.SpawnStep(name, prio, sess)
	} else {
		if s.outs == nil {
			s.outs = make(map[*srvSession]*loadBuffer)
		}
		s.outs[sess] = out
		sess.th = s.w.Spawn(name, prio, func(t *sim.Thread) any {
			for sess.Step(t) {
			}
			return nil
		})
	}
	s.Stats.Threads++
}

// stampSLO makes every session declare class as its SLO class and keep
// its deadline and service estimate current (see stamp), pricing each
// pending request at unit. Deadlines are the pool's slo past arrival.
func (s *Server) stampSLO(class string, unit vclock.Duration) {
	s.unit = unit
	for i := range s.sessions {
		s.sessions[i].th.SetSLOClass(class)
	}
}

// stamp refreshes a session's scheduler-visible metadata from its
// queue: the head request's deadline (EDF) and the pending service
// demand (SJF). It runs at every arrival, completion and idle point,
// in driver and thread context alike.
func (s *Server) stamp(sess *srvSession) {
	pending := len(sess.q) - int(sess.head)
	if pending > 0 {
		sess.th.SetDeadline(sess.q[sess.head].born.Add(s.slo))
	} else {
		sess.th.SetDeadline(0)
	}
	sess.th.SetServiceEstimate(vclock.Duration(pending) * s.unit)
}

// Sessions returns the pool size.
func (s *Server) Sessions() int { return len(s.sessions) }

// Pending returns the number of injected-but-not-completed requests —
// the instantaneous queue depth a least-loaded router compares.
func (s *Server) Pending() int { return s.pending }

// Inject posts one request to session i, stamped with the world's
// current time. The driver is responsible for session choice (that is
// the routing policy) and for the service demand (that is the workload
// model).
func (s *Server) Inject(i int, service vclock.Duration) {
	if s.closed {
		panic("workload: Inject after Close")
	}
	s.enqueue(i, srvReq{born: s.w.Now(), service: service})
}

// enqueue posts r to session i's queue and wakes the session.
func (s *Server) enqueue(i int, r srvReq) {
	if s.Stats.Offered == 0 {
		s.firstAt = r.born
	}
	sess := &s.sessions[i%len(s.sessions)]
	sess.q = append(sess.q, r)
	s.Stats.Offered++
	s.pending++
	if s.unit > 0 {
		s.stamp(sess)
	}
	s.w.WakeIfBlocked(sess.th, nil)
}

// Close marks the offered load complete and wakes every idle session so
// the pool can drain and exit, letting the world quiesce.
func (s *Server) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for i := range s.sessions {
		s.w.WakeIfBlocked(s.sessions[i].th, nil)
	}
}

// Step runs the session from its last park to its next: it finishes
// the request whose Compute it parked in, then serves its queue until
// the queue is empty (park on the CV), service is stalled (park in
// I/O), or a Compute parks. It returns false when the pool is closed
// and the queue drained. Run from a coroutine, the same code parks
// inside each call instead and the Proc just calls Step again.
func (sess *srvSession) Step(t *sim.Thread) bool {
	s := sess.srv
	if sess.serving {
		sess.serving = false
		s.complete(sess, t)
	}
	for {
		if int(sess.head) == len(sess.q) {
			sess.q, sess.head = sess.q[:0], 0
			if s.unit > 0 {
				s.stamp(sess)
			}
			if s.closed {
				if out := s.outs[sess]; out != nil {
					out.close(t)
				}
				return false
			}
			t.Block(sim.BlockCV)
			return true
		}
		// A stalled instance admits requests but serves none until the
		// window passes — §6.2's "the system seemed to stop", scaled
		// from one thread to one machine.
		if s.stallUntil.After(t.Now()) {
			t.BlockIO(s.stallUntil.Sub(t.Now()))
			return true
		}
		req := &sess.q[sess.head]
		sess.head++
		if req.tracked && s.cancelSet[req.token] {
			// Cancelled while still queued (a hedge loser): consumes no
			// service time and reports no completion.
			delete(s.cancelSet, req.token)
			s.pending--
			continue
		}
		sess.serving = true
		t.Compute(req.service)
		if t.Parked() {
			return true
		}
		sess.serving = false
		s.complete(sess, t)
	}
}

// complete finishes the request sess has just served, q[head-1].
func (s *Server) complete(sess *srvSession, t *sim.Thread) {
	req := sess.q[sess.head-1]
	s.pending--
	if req.tracked {
		delete(s.cancelSet, req.token)
		ok := !s.down && req.epoch == s.epoch
		s.events = append(s.events, Completion{Token: req.token, At: t.Now(), OK: ok})
		if !ok {
			// The machine died between admission and response: the
			// work happened, the answer was never delivered.
			s.failed++
			return
		}
	}
	if out := s.outs[sess]; out != nil {
		out.put(t, req.born)
		return
	}
	lat := t.Now().Sub(req.born)
	s.Stats.Completed++
	s.Stats.Latency.Add(lat)
	if s.slo > 0 && lat <= s.slo {
		s.onTime++
	}
	s.lastDone = t.Now()
	if s.unit > 0 {
		s.stamp(sess)
	}
}

// InjectTracked posts one request like Inject, stamped with the driver's
// token; its outcome is later reported through Drain as a Completion.
// When the instance is down the request is refused on the spot — a
// failed Completion at the current time — and consumes no service.
func (s *Server) InjectTracked(i int, service vclock.Duration, token uint64) {
	now := s.w.Now()
	if s.down {
		s.failed++
		s.events = append(s.events, Completion{Token: token, At: now, OK: false})
		return
	}
	if s.closed {
		panic("workload: InjectTracked after Close")
	}
	s.enqueue(i, srvReq{born: now, service: service, token: token, epoch: s.epoch, tracked: true})
}

// Drain returns the tracked completions recorded since the previous
// Drain, in completion order. The result is valid only until the next
// Drain: the server alternates two buffers, recording into the one the
// Drain before returned. Call from the cluster driver after an advance
// barrier — never while the world may still be stepping.
func (s *Server) Drain() []Completion {
	ev := s.events
	s.events, s.drained = s.drained[:0], ev
	return ev
}

// Crash takes the instance down at the current virtual time: queued
// requests are dropped cold (failed Completions for tracked ones),
// in-flight responses will not be delivered, and InjectTracked refuses
// new work until Restore. Session threads survive — the cold restart
// reuses them with empty queues.
func (s *Server) Crash() {
	s.down = true
	s.epoch++
	now := s.w.Now()
	for i := range s.sessions {
		sess := &s.sessions[i]
		for _, r := range sess.q[sess.head:] {
			s.pending--
			s.dropped++
			if r.tracked {
				s.events = append(s.events, Completion{Token: r.token, At: now, OK: false})
			}
		}
		if sess.serving {
			// The request in service stays for its completion to read.
			sess.q[0] = sess.q[sess.head-1]
			sess.q, sess.head = sess.q[:1], 1
		} else {
			sess.q, sess.head = sess.q[:0], 0
		}
	}
}

// Restore brings a crashed instance back with cold session state (the
// queues were emptied by Crash; nothing carries over).
func (s *Server) Restore() { s.down = false }

// StallUntil freezes service until the given virtual time: sessions keep
// admitting requests but complete none before it. Later deadlines win.
func (s *Server) StallUntil(until vclock.Time) {
	if until.After(s.stallUntil) {
		s.stallUntil = until
	}
}

// CancelQueued marks a tracked request for cancellation. If it is still
// queued when a session reaches it, it is skipped without consuming
// service and without a Completion; if it already started computing the
// cancel is too late and the request completes normally.
func (s *Server) CancelQueued(token uint64) {
	if s.cancelSet == nil {
		s.cancelSet = make(map[uint64]bool)
	}
	s.cancelSet[token] = true
}

// Dropped returns the number of requests lost cold to Crash.
func (s *Server) Dropped() int64 { return s.dropped }

// OnTime returns the number of completions within the pool's latency
// target (0 when the pool has none).
func (s *Server) OnTime() int64 { return s.onTime }

// Undelivered returns the number of tracked requests refused by a down
// instance or whose response was lost to a crash mid-service.
func (s *Server) Undelivered() int64 { return s.failed }

// First returns the arrival time of the first injected request (the
// zero Time if none were injected).
func (s *Server) First() vclock.Time { return s.firstAt }

// LastDone returns the completion time of the last served request (the
// zero Time if none completed). Together with First this lets a fleet
// compute its aggregate measurement window — earliest first arrival to
// latest last completion across instances — which per-instance
// LoadStats.Window alone cannot express.
func (s *Server) LastDone() vclock.Time { return s.lastDone }

// Finish stamps the measurement window after the driving Run returns.
func (s *Server) Finish() *LoadStats {
	if s.Stats.Completed > 0 {
		s.Stats.Window = s.lastDone.Sub(s.firstAt)
	}
	return &s.Stats
}

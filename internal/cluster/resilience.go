package cluster

import (
	"cmp"
	"slices"

	"repro/internal/eventq"
	"repro/internal/stats"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// This file is the cluster driver: one event loop runs every Spec. Client
// events — arrivals, plus probes, timeouts, retries and hedges when a
// resilience knob is set — sit in one eventq.Queue and pop in (time,
// insertion seq) order. The next arrival, the only one ever pending, is a
// timer slot in that queue, re-armed at each arrival. The per-attempt
// timeouts share one more slot: every timeout falls Spec.Timeout after
// its dispatch and the driver clock never goes back, so they fall due in
// the order they were armed. Each takes its ticket (eventq.Queue.Reserve)
// where a Schedule call would have taken its place, waits in a FIFO, and
// the slot stays armed at the FIFO's head under the head's ticket, so
// every timeout pops at the (time, seq) that Schedule would have given
// it, without a closure or a queued event per attempt. Retries and hedges
// have varying delays and stay ordinary events. Two rules, both read off
// the spec, replace any choice between run paths.
//
// First, requests carry client state only when spec.resilient() holds.
// A tracked request has a token per attempt, each instance reports
// tracked Completions, and the driver runs a client state machine over
// them: retry with capped backoff under a fleet-wide budget, hedge at a
// p99-derived delay, trip breakers, and classify every admitted request
// into exactly one of goodput / degraded / shed / failed. An untracked
// request is injected and forgotten; the servers' own ledgers say what
// became of it. Either way
//
//	offered == rejected + shed + failed + degraded + goodput
//
// holds as an accounting identity, not a hope.
//
// Second, the worlds advance to an event's instant only when something
// must read them there. With client state, every pop raises a barrier
// at the event time (once per instant) and folds in the Completion
// buffers of the instances it ran in (time, instance-ID) order before
// the event is handled. Without it, only a load-reading router pays a
// barrier, at every read, so a read sees the injections made earlier at
// the same instant; a blind router lets injections pile up and the
// worlds catch up in bulk at the end — same simulated outcome per
// world, radically different driver cost. A barrier runs only the
// worlds whose due bound has come (Cluster.advanceAll): each instance
// keeps a lower bound on its world's next event and its inbox's head,
// so a barrier costs what it runs, not the fleet size.
//
// Every routed request, tracked or not, waits in its instance's inbox
// (inbox.go) rather than as a callback in the world. Routing takes the
// world's event-order ticket (sim.World.Ticket) where a World.At call
// would have been made, and one pump per world, a timer slot in the
// world's queue, delivers the inbox's entries one at a time, each at its
// instant under its ticket.
// A request so costs the world exactly the one event, in exactly the
// place, that a per-request World.At callback would, which keeps an
// injection ahead of world events scheduled later for the same instant;
// the driver pays no closure and no queued event per request, only an
// inbox slot.
//
// Worlds never observe the client and the client reads worlds only at
// barriers, so Spec.Shards remains invisible in the output. Per arrival
// the order of operations is fixed: clock gap, admission decision, user
// draw, service draw, route. Rejected requests consume no user or
// service draws, so the admitted subsequence's identities and demands
// do not depend on the admission policy; a replay takes all three from
// its trace instead and bypasses admission.

// --- circuit breaker -------------------------------------------------

type breakerState int

const (
	bkClosed breakerState = iota
	bkOpen
	bkHalfOpen
)

// breaker is one instance's client-side circuit breaker: closed until
// `after` consecutive failures, open for openFor, then half-open with a
// single trial in flight — success closes it, failure re-opens it. It
// is fed by request outcomes (timeouts, refusals, lost responses),
// unlike the health monitor, which is fed by probes; the two protect
// against different failure shapes and are deliberately independent.
type breaker struct {
	after   int // consecutive failures to open; 0 disables
	openFor vclock.Duration

	state      breakerState
	consecFail int
	openedAt   vclock.Time
	probing    bool

	opens     int64
	fastFails int64
}

// allow reports whether a dispatch to this instance may proceed, and
// counts a fast-fail when it may not. In half-open it admits exactly
// one trial at a time.
func (b *breaker) allow(now vclock.Time) bool {
	if b.after <= 0 {
		return true
	}
	switch b.state {
	case bkClosed:
		return true
	case bkOpen:
		if now.Sub(b.openedAt) >= b.openFor {
			b.state = bkHalfOpen
			b.probing = true
			return true
		}
		b.fastFails++
		return false
	default: // half-open
		if b.probing {
			b.fastFails++
			return false
		}
		b.probing = true
		return true
	}
}

// abandon releases a half-open trial slot whose attempt was cancelled
// (a hedge loser): the trial reported neither success nor failure, so
// the breaker must let another through rather than fast-fail forever.
func (b *breaker) abandon() {
	if b.state == bkHalfOpen {
		b.probing = false
	}
}

func (b *breaker) onSuccess() {
	if b.after <= 0 {
		return
	}
	b.state, b.consecFail, b.probing = bkClosed, 0, false
}

func (b *breaker) onFailure(now vclock.Time) {
	if b.after <= 0 {
		return
	}
	if b.state == bkHalfOpen {
		b.state, b.openedAt, b.probing = bkOpen, now, false
		b.opens++
		return
	}
	b.consecFail++
	if b.state == bkClosed && b.consecFail >= b.after {
		b.state, b.openedAt = bkOpen, now
		b.opens++
	}
}

// --- client request state --------------------------------------------

// creq is one admitted request as the client sees it, across every
// attempt (original, retries, hedge).
type creq struct {
	user    int
	service vclock.Duration
	born    vclock.Time

	resolved bool
	attempts int // dispatches routed (including refused ones)
	retries  int
	hedged   bool
	pending  int // live attempts in flight
	lastInst int
	live     []*attempt
}

// attempt is one dispatched copy of a request on one instance.
type attempt struct {
	req   *creq
	inst  int
	token uint64
	hedge bool
	done  bool
}

// pendingTimeout is one attempt's timeout: due at at, ordered among
// the client events by the ticket seq taken when it was armed.
type pendingTimeout struct {
	at  vclock.Time
	seq uint64
	att *attempt
}

// timeoutFIFO is a growable ring of pending timeouts. Every timeout is
// Spec.Timeout after its dispatch and the driver clock never goes back,
// so the timeouts fall due in the order they are armed.
type timeoutFIFO struct {
	ring     []pendingTimeout
	first, n int
}

func (f *timeoutFIFO) push(e pendingTimeout) {
	if f.n == len(f.ring) {
		grown := make([]pendingTimeout, max(64, 2*len(f.ring)))
		m := copy(grown, f.ring[f.first:])
		copy(grown[m:], f.ring[:f.first])
		f.ring, f.first = grown, 0
	}
	f.ring[(f.first+f.n)%len(f.ring)] = e
	f.n++
}

// head returns the earliest pending timeout, or nil.
func (f *timeoutFIFO) head() *pendingTimeout {
	if f.n == 0 {
		return nil
	}
	return &f.ring[f.first]
}

// tail returns the latest pending timeout, or nil.
func (f *timeoutFIFO) tail() *pendingTimeout {
	if f.n == 0 {
		return nil
	}
	return &f.ring[(f.first+f.n-1)%len(f.ring)]
}

// pop removes and returns the earliest pending timeout; f must not be
// empty.
func (f *timeoutFIFO) pop() pendingTimeout {
	e := f.ring[f.first]
	f.ring[f.first] = pendingTimeout{} // let the attempt go
	f.first = (f.first + 1) % len(f.ring)
	f.n--
	return e
}

// --- the driver ------------------------------------------------------

// landed is one tracked completion tagged with its instance.
type landed struct {
	inst int
	cp   workload.Completion
}

const unhealthyLoad = 1 << 30 // poisons least-loaded away from ejected instances

// driver is one Run's state: the client event queue, the advance
// barrier, and — for tracked requests — the client state machine.
type driver struct {
	c      *Cluster
	track  bool // requests carry client state (spec.resilient())
	health *healthMonitor
	brk    []breaker

	q         eventq.Queue
	arrival   eventq.Timer // the next arrival: a slot in q bound to onArrival
	timeout   eventq.Timer // the earliest pending timeout: a slot in q bound to onTimeout
	deadlines timeoutFIFO  // pending timeouts in arming order, which is (at, seq) order
	now       vclock.Time  // instant of the event being handled
	barrier   vclock.Time  // every world has been advanced to here

	tokens    map[uint64]*attempt
	nextToken uint64
	loads     []int
	landed    []landed // drainCompletions' scratch, reused at every barrier

	arrivals    int64 // total to offer: Requests, or the replay's entries
	outstanding int64 // admitted, unresolved tracked requests

	offered, admitted, rejected     int64
	goodput, degraded, shed, failed int64

	retriesIssued, retriesDenied int64
	hedges, hedgeWins            int64
	timeouts, refused, lost      int64

	firstArrival vclock.Time
	lastResolve  vclock.Time

	clientP99 *stats.Quantile          // running p99 of client-observed successes: the hedge delay
	phases    [3]stats.LatencyRecorder // indexed by phaseIdx(born)
}

func newDriver(c *Cluster) *driver {
	s := &c.spec
	d := &driver{
		c:            c,
		track:        s.resilient(),
		brk:          make([]breaker, len(c.insts)),
		tokens:       make(map[uint64]*attempt),
		loads:        make([]int, len(c.insts)),
		arrivals:     s.Requests,
		firstArrival: vclock.Never,
		clientP99:    stats.NewQuantile(0.99),
	}
	d.q.Register(&d.arrival, d.onArrival)
	d.q.Register(&d.timeout, d.onTimeout)
	if s.Replay != nil {
		d.arrivals = int64(len(s.Replay.Entries))
	}
	for i := range d.brk {
		d.brk[i] = breaker{after: s.BreakerAfter, openFor: s.BreakerOpenFor}
	}
	if s.ProbeEvery > 0 {
		d.health = newHealthMonitor(len(c.insts))
	}
	return d
}

// run drives the fleet through its offered load and returns the
// summary.
func (d *driver) run() *Summary {
	c, s := d.c, &d.c.spec
	c.faults.arm(c.insts)
	t0 := vclock.Time(0).Add(s.Start)
	d.now, d.barrier = t0, t0
	if s.ProbeEvery > 0 {
		d.q.Schedule(t0, d.onProbe)
	}
	d.scheduleArrival(t0)

	for {
		for !d.q.Empty() {
			do, at, _ := d.q.PopDo()
			d.now = at
			if d.track {
				d.advance(at)
			}
			do()
		}
		if d.outstanding == 0 {
			break
		}
		// In-flight work with no scheduled client events (no timeouts
		// configured): let the fleet drain and fold in whatever lands.
		before := d.outstanding
		d.advance(d.barrier.Add(s.Drain))
		if d.q.Empty() && d.outstanding == before {
			break // nothing in flight will ever land
		}
	}

	// Flush every queued injection (a tracked run is already past the
	// last event), close the pools strictly after it, and let the
	// worlds quiesce. With a Close due in every world, this last
	// advance runs them all.
	d.advance(d.now)
	closeAt := d.barrier.Add(vclock.Microsecond)
	for _, in := range c.insts {
		in.w.At(closeAt, in.srv.Close)
		in.due = min(in.due, closeAt)
	}
	c.advanceAll(closeAt.Add(s.Drain))
	d.drainCompletions()

	// Anything still unresolved — queued behind a stall longer than the
	// drain, say — failed from the client's point of view.
	d.failed += d.outstanding
	d.outstanding = 0
	return d.summary()
}

// scheduleArrival queues the arrival after the one at t, if any remain:
// the replay's next instant, or t plus a drawn gap.
func (d *driver) scheduleArrival(t vclock.Time) {
	if d.offered == d.arrivals {
		return
	}
	if rp := d.c.spec.Replay; rp != nil {
		t = vclock.Time(0).Add(vclock.Duration(rp.Entries[d.offered].AtUS))
	} else {
		t = t.Add(expGap(d.c.rng, d.c.spec.Rate))
	}
	d.arrival.Arm(t)
}

// advance brings every world to t and folds in the tracked completions
// that landed. With client state it moves the barrier only forward.
// Without, it is called only where a router reads loads and once at the
// end, and it re-advances to an equal instant, so the injections made
// since the last barrier reach their servers before the read.
func (d *driver) advance(t vclock.Time) {
	if t.After(d.barrier) || !d.track {
		d.c.advanceAll(t)
		d.barrier = t
	}
	d.drainCompletions()
}

// drainCompletions folds the Completion buffers of the instances that
// ran since the last drain into the client state machine in (time,
// instance-ID) order — the only order that is independent of how worlds
// were dealt onto shards. Only a world that runs can complete anything.
// The stable sort keeps each instance's own completion order at equal
// times.
func (d *driver) drainCompletions() {
	all := d.landed[:0]
	for _, in := range d.c.advanced {
		for _, cp := range in.srv.Drain() {
			all = append(all, landed{in.id, cp})
		}
	}
	d.c.advanced = d.c.advanced[:0]
	if len(all) == 0 {
		return
	}
	slices.SortStableFunc(all, func(a, b landed) int {
		if c := cmp.Compare(a.cp.At, b.cp.At); c != 0 {
			return c
		}
		return cmp.Compare(a.inst, b.inst)
	})
	for _, tc := range all {
		d.onCompletion(tc.inst, tc.cp)
	}
	d.landed = all[:0]
}

func (d *driver) onCompletion(inst int, cp workload.Completion) {
	att := d.tokens[cp.Token]
	delete(d.tokens, cp.Token)
	if att == nil || att.done {
		return // timed out, cancelled, or the request already resolved
	}
	att.done = true
	att.req.pending--
	if cp.OK {
		d.brk[inst].onSuccess()
		if !att.req.resolved {
			d.resolve(att.req, att, cp.At)
		}
		return
	}
	// The instance crashed between admission and response.
	d.lost++
	d.brk[inst].onFailure(cp.At)
	d.attemptFailed(att.req, cp.At)
}

// resolve closes a request as a success, classifies it, and cancels
// any sibling attempts still in flight (the hedge loser).
func (d *driver) resolve(req *creq, winner *attempt, tc vclock.Time) {
	req.resolved = true
	d.outstanding--
	lat := tc.Sub(req.born)
	if req.attempts > 1 || (d.c.spec.DegradedOver > 0 && lat > d.c.spec.DegradedOver) {
		d.degraded++
	} else {
		d.goodput++
	}
	if winner.hedge {
		d.hedgeWins++
	}
	d.clientP99.Add(lat)
	d.phases[d.c.faults.phaseIdx(req.born)].Add(lat)
	if tc.After(d.lastResolve) {
		d.lastResolve = tc
	}
	for _, a := range req.live {
		if a == winner || a.done {
			continue
		}
		a.done = true
		req.pending--
		// Driver context at a barrier: safe to touch server state
		// directly. If the loser is still queued it dies unserved; if it
		// already started computing, its completion arrives token-less
		// and is dropped above.
		d.c.insts[a.inst].srv.CancelQueued(a.token)
		d.brk[a.inst].abandon()
		delete(d.tokens, a.token)
	}
}

// attemptFailed is the common tail of every failed attempt: retry if
// the policy and the fleet-wide budget allow, otherwise fail the
// request once nothing else is in flight for it.
func (d *driver) attemptFailed(req *creq, now vclock.Time) {
	if req.resolved {
		return
	}
	s := &d.c.spec
	if req.retries < s.Retries {
		if d.budgetAllows() {
			d.retriesIssued++
			req.retries++
			at := now.Add(d.backoff(req.retries))
			if at.Before(d.barrier) {
				at = d.barrier
			}
			d.q.Schedule(at, func() { d.onRetry(req) })
			return
		}
		d.retriesDenied++
	}
	if req.pending == 0 {
		req.resolved = true
		d.outstanding--
		d.failed++
	}
}

// budgetAllows checks the fleet-wide retry budget: retries may be at
// most RetryBudget × offered-so-far. This is the retry-storm valve —
// per-request retry counts multiply under fleet-wide overload, a
// fleet-wide fraction cannot.
func (d *driver) budgetAllows() bool {
	s := &d.c.spec
	if s.RetryBudget <= 0 {
		return true
	}
	return float64(d.retriesIssued+1) <= s.RetryBudget*float64(d.offered)
}

// backoff returns the capped exponential backoff before retry n (1-based).
func (d *driver) backoff(n int) vclock.Duration {
	b, limit := d.c.spec.RetryBackoff, backoffCapFactor*d.c.spec.RetryBackoff
	for i := 1; i < n && b < limit; i++ {
		b *= 2
	}
	return min(b, limit)
}

// hedgeDelay is how long the client waits before duplicating a request:
// the observed p99 of successes so far, floored at HedgeAfter until
// enough samples accumulate. The p99 is the exact nearest-rank sample,
// tracked as successes resolve, so reading it here costs O(1).
func (d *driver) hedgeDelay() vclock.Duration {
	delay := d.c.spec.HedgeAfter
	if d.clientP99.Count() >= 20 {
		if p := d.clientP99.Value(); p > delay {
			delay = p
		}
	}
	return delay
}

// --- event handlers --------------------------------------------------

// onArrival offers one request: the replay's next entry, or an
// admission decision followed, if admitted, by the user and service
// draws. A tracked request enters the client state machine; an
// untracked one is routed and injected.
func (d *driver) onArrival() {
	s, t := &d.c.spec, d.now
	k := d.offered
	d.offered++
	var user int
	var service vclock.Duration
	if s.Replay != nil {
		e := &s.Replay.Entries[k]
		user, service = e.Session, vclock.Duration(e.ServiceUS)
	} else if d.c.admit.Admit(t) {
		user, service = d.c.drawUser(d.c.rng), d.c.drawService(d.c.rng)
	} else {
		d.rejected++
		d.scheduleArrival(t)
		return
	}
	d.admitted++
	if d.firstArrival == vclock.Never {
		d.firstArrival = t
	}
	if s.Record != nil {
		s.Record.Add(t, "", user, service)
	}
	if d.track {
		d.outstanding++
		d.dispatch(&creq{user: user, service: service, born: t, lastInst: -1}, -1, false, t)
	} else {
		in := d.c.insts[d.choose(user, -1, t)]
		in.routed++
		in.send(t, user%s.Sessions, service, 0, false)
	}
	d.scheduleArrival(t)
}

func (d *driver) onProbe() {
	t := d.now
	d.health.probe(t, func(i int) bool {
		// A shallow probe sees crashes and stalls, not brownouts.
		return !d.c.faults.downAt(i, t) && !d.c.faults.stalledAt(i, t)
	})
	if d.offered < d.arrivals || d.outstanding > 0 {
		d.q.Schedule(t.Add(d.c.spec.ProbeEvery), d.onProbe)
	}
}

// armTimeout queues att's timeout at at. It takes its place in the
// client event order now, as a Schedule call would, and waits in the
// timeout FIFO; only the FIFO's head is armed in the queue.
func (d *driver) armTimeout(at vclock.Time, att *attempt) {
	if tail := d.deadlines.tail(); tail != nil && at < tail.at {
		panic("cluster: client timeouts armed out of order")
	}
	seq := d.q.Reserve()
	d.deadlines.push(pendingTimeout{at: at, seq: seq, att: att})
	if !d.timeout.Armed() {
		d.timeout.ArmSeq(at, seq)
	}
}

// onTimeout is the timeout slot's callback: it pops the FIFO's head,
// arms the next one under its own ticket, and fails the head's attempt
// unless it already ended.
func (d *driver) onTimeout() {
	att := d.deadlines.pop().att
	if next := d.deadlines.head(); next != nil {
		d.timeout.ArmSeq(next.at, next.seq)
	}
	if att.done || att.req.resolved {
		return
	}
	att.done = true
	att.req.pending--
	d.timeouts++
	d.brk[att.inst].onFailure(d.now)
	d.c.insts[att.inst].srv.CancelQueued(att.token)
	delete(d.tokens, att.token)
	d.attemptFailed(att.req, d.now)
}

func (d *driver) onRetry(req *creq) {
	if req.resolved {
		return
	}
	d.dispatch(req, req.lastInst, false, d.now)
}

func (d *driver) onHedge(req *creq) {
	if req.resolved || req.hedged || req.pending == 0 {
		// Already answered, already hedged, or the primary failed
		// outright — the retry path owns recovery from failure; hedging
		// only shaves the slow-success tail.
		return
	}
	req.hedged = true
	d.dispatch(req, req.lastInst, true, d.now)
}

// --- dispatch --------------------------------------------------------

// choose picks the dispatch target: the base router's choice, failed
// over along the instance ring past ejected instances and open
// breakers, skipping `exclude` (the instance a retry or hedge is
// fleeing) unless it is the only healthy choice. Returns -1 when no
// instance is eligible.
func (d *driver) choose(user, exclude int, now vclock.Time) int {
	n := len(d.c.insts)
	var snapshot []int
	if d.c.route.NeedsLoads() {
		if !d.track {
			d.advance(now) // a tracked run advanced when the event popped
		}
		for i, in := range d.c.insts {
			d.loads[i] = in.srv.Pending()
			if !d.health.isHealthy(i) {
				d.loads[i] = unhealthyLoad
			}
		}
		snapshot = d.loads
	}
	base := d.c.route.Route(user, snapshot)
	// A rotation router's failover is to keep rotating: skipping an
	// ejected instance by ring-scan would dump its whole share onto the
	// ring successor, while burning a turn per skip spreads it evenly
	// over the healthy remainder. Stateless routers (affinity) re-home
	// by ring-scan below — the pinned user's deterministic fallback.
	if _, rotates := d.c.route.(*roundRobin); rotates {
		for tries := 0; tries < n && !d.health.isHealthy(base); tries++ {
			base = d.c.route.Route(user, snapshot)
		}
	}
	fallback := -1
	for k := 0; k < n; k++ {
		j := (base + k) % n
		if !d.health.isHealthy(j) {
			continue
		}
		if j == exclude {
			if fallback < 0 {
				fallback = j
			}
			continue
		}
		if d.brk[j].allow(now) {
			return j
		}
	}
	if fallback >= 0 && d.brk[fallback].allow(now) {
		return fallback
	}
	return -1
}

func (d *driver) dispatch(req *creq, exclude int, hedge bool, now vclock.Time) {
	inst := d.choose(req.user, exclude, now)
	if inst < 0 {
		if hedge {
			return // opportunistic; the primary is still in flight
		}
		if req.pending > 0 {
			return // something else is still in flight for this request
		}
		req.resolved = true
		d.outstanding--
		if req.attempts == 0 {
			d.shed++ // never dispatched anywhere
		} else {
			d.failed++
		}
		return
	}
	req.attempts++
	req.lastInst = inst
	in := d.c.insts[inst]
	in.routed++
	if d.c.faults.downAt(inst, now) {
		// Connection refused: instant failure, no service consumed. This
		// is what feeds the breaker fastest — and what the D1 control
		// (no health monitor) keeps paying for.
		d.refused++
		d.brk[inst].onFailure(now)
		if hedge {
			return
		}
		d.attemptFailed(req, now)
		return
	}
	if hedge {
		d.hedges++
	}
	svc := req.service
	if f := d.c.faults.degradeAt(inst, now); f > 1 {
		svc = vclock.Duration(float64(svc) * f)
	}
	tok := d.nextToken
	d.nextToken++
	att := &attempt{req: req, inst: inst, token: tok, hedge: hedge}
	d.tokens[tok] = att
	req.live = append(req.live, att)
	req.pending++
	in.send(now, req.user%d.c.spec.Sessions, svc, tok, true)
	if d.c.spec.Timeout > 0 {
		d.armTimeout(now.Add(d.c.spec.Timeout), att)
	}
	if !hedge && !req.hedged && req.attempts == 1 && d.c.spec.HedgeAfter > 0 {
		d.q.Schedule(now.Add(d.hedgeDelay()), func() { d.onHedge(req) })
	}
}

// --- summary ---------------------------------------------------------

func (d *driver) summary() *Summary {
	c := d.c
	// The aggregate percentiles are client-observed (born → answered)
	// for tracked requests, so retries and hedges cannot launder the
	// tail; phase slices carry the before/during/after story. An
	// untracked request's only latency is the one its server recorded.
	var parts []*stats.LatencyRecorder
	if d.track {
		for i := range d.phases {
			parts = append(parts, &d.phases[i])
		}
	} else {
		// No client-side outcomes: everything the servers completed is
		// goodput, and the rest of the admitted load (a drain cut short)
		// failed by omission.
		for _, in := range c.insts {
			parts = append(parts, &in.srv.Stats.Latency)
			d.goodput += in.srv.Stats.Completed
			if in.srv.LastDone().After(d.lastResolve) {
				d.lastResolve = in.srv.LastDone()
			}
		}
		d.failed = d.admitted - d.goodput
	}
	sum := &Summary{
		Preset:    c.spec.Preset,
		Instances: c.spec.Instances,
		Sessions:  c.spec.Sessions,
		Router:    c.spec.Router,
		Admission: c.spec.Admission,
		Seed:      c.spec.Seed,
		Offered:   d.offered,
		Admitted:  d.admitted,
		Rejected:  d.rejected,
		Goodput:   d.goodput,
		Degraded:  d.degraded,
		Shed:      d.shed,
		Failed:    d.failed,
		Completed: d.goodput + d.degraded,
	}
	for _, in := range c.insts { // instance-ID order: reproducible
		ls := in.srv.Finish()
		sum.PerInstance = append(sum.PerInstance, InstanceSummary{
			ID:         in.id,
			Routed:     in.routed,
			Completed:  ls.Completed,
			Throughput: ls.Throughput(),
			P50Us:      ls.Latency.Percentile(0.50).Micros(),
			P95Us:      ls.Latency.Percentile(0.95).Micros(),
			P99Us:      ls.Latency.Percentile(0.99).Micros(),
			MaxUs:      ls.Latency.Max().Micros(),
		})
	}
	agg := &stats.LatencyRecorder{}
	n := 0
	for _, p := range parts {
		n += p.Count()
	}
	agg.Grow(n)
	for _, p := range parts {
		agg.Merge(p)
	}
	if d.track {
		sum.Resilience = d.resilience()
	}
	if sum.Completed > 0 && d.firstArrival != vclock.Never && d.lastResolve.After(d.firstArrival) {
		w := d.lastResolve.Sub(d.firstArrival)
		sum.WindowUs = w.Micros()
		sum.Throughput = float64(sum.Completed) / w.Seconds()
	}
	sum.P50Us = agg.Percentile(0.50).Micros()
	sum.P95Us = agg.Percentile(0.95).Micros()
	sum.P99Us = agg.Percentile(0.99).Micros()
	sum.MaxUs = agg.Max().Micros()
	return sum
}

// resilience is a tracked run's mechanism ledger.
func (d *driver) resilience() *ResilienceSummary {
	res := &ResilienceSummary{
		Timeouts:      d.timeouts,
		Retries:       d.retriesIssued,
		RetriesDenied: d.retriesDenied,
		Hedges:        d.hedges,
		HedgeWins:     d.hedgeWins,
		Refused:       d.refused,
		Lost:          d.lost,
	}
	for i := range d.brk {
		res.BreakerOpens += d.brk[i].opens
		res.BreakerFastFails += d.brk[i].fastFails
	}
	if d.health != nil {
		res.Ejections = d.health.ejections
		res.Readmissions = d.health.readmissions
		res.RecoveryUs = d.health.ttrMax.Micros()
	}
	for i := range d.phases {
		ph := &d.phases[i]
		if ph.Count() == 0 {
			continue
		}
		res.Phases = append(res.Phases, PhaseSummary{
			Phase: phaseNames[i],
			Count: int64(ph.Count()),
			P50Us: ph.Percentile(0.50).Micros(),
			P95Us: ph.Percentile(0.95).Micros(),
			P99Us: ph.Percentile(0.99).Micros(),
			MaxUs: ph.Max().Micros(),
		})
	}
	return res
}

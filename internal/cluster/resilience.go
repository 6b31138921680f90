package cluster

import (
	"container/heap"
	"sort"

	"repro/internal/stats"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// This file is the resilient run path: the event-driven cluster driver
// that Run switches to when the spec asks for faults, health-aware
// routing, or any client-side resilience policy (timeout, retries,
// hedging, circuit breaking). The legacy path injects fire-and-forget;
// this path tracks every request end to end — each attempt carries a
// token, each instance reports tracked Completions, and the driver runs
// a client state machine over them: retry with capped backoff under a
// fleet-wide budget, hedge at a p99-derived delay, trip breakers, and
// classify every admitted request into exactly one of goodput /
// degraded / shed / failed, so that
//
//	offered == rejected + shed + failed + degraded + goodput
//
// holds as an accounting identity, not a hope.
//
// Determinism is preserved by the same discipline as the legacy path,
// tightened for feedback loops: ALL client state lives in the driver
// and changes only at advance barriers. Client events (arrivals,
// probes, timeouts, retries, hedges) sit in one heap ordered by
// (time, insertion seq); each pop advances every world to the event
// time, drains the instances' Completion buffers in (time, instance-ID)
// order, applies them, then handles the event. Worlds never observe the
// client and the client reads worlds only at barriers, so Spec.Shards
// remains invisible in the output.

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

// --- client event heap -----------------------------------------------

type evKind int

const (
	evArrival evKind = iota
	evProbe
	evTimeout
	evRetry
	evHedge
)

type clientEvent struct {
	at   vclock.Time
	seq  int64 // insertion order breaks time ties deterministically
	kind evKind
	req  *creq    // evRetry, evHedge
	att  *attempt // evTimeout
}

type eventHeap []*clientEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*clientEvent)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// --- the driver ------------------------------------------------------

const unhealthyLoad = 1 << 30 // poisons least-loaded away from ejected instances

type resilientRun struct {
	c      *Cluster
	faults *instanceFaults
	health *healthMonitor
	brk    []breaker

	heap    eventHeap
	seq     int64
	barrier vclock.Time

	tokens    map[uint64]*attempt
	nextToken uint64
	loads     []int

	pendingArrivals int64
	outstanding     int64 // admitted, unresolved requests

	offered, admitted, rejected     int64
	goodput, degraded, shed, failed int64

	retriesIssued, retriesDenied int64
	hedges, hedgeWins            int64
	timeouts, refused, lost      int64

	firstArrival vclock.Time
	lastResolve  vclock.Time

	clientLat stats.LatencyRecorder    // successes, client-observed: hedge delay source
	phases    [3]stats.LatencyRecorder // indexed by phaseIdx(born)
}

// runResilient drives the fleet through the tracked-request state
// machine and returns the extended summary.
func (c *Cluster) runResilient() (*Summary, error) {
	s := c.spec
	r := &resilientRun{
		c:               c,
		faults:          c.faults,
		brk:             make([]breaker, len(c.insts)),
		tokens:          make(map[uint64]*attempt),
		loads:           make([]int, len(c.insts)),
		pendingArrivals: s.Requests,
		firstArrival:    vclock.Never,
	}
	if r.faults == nil {
		r.faults, _ = compileFaults(nil, len(c.insts), 0)
	}
	for i := range r.brk {
		r.brk[i] = breaker{after: s.BreakerAfter, openFor: s.BreakerOpenFor}
	}
	if s.ProbeEvery > 0 {
		r.health = newHealthMonitor(len(c.insts), s.FailAfter, s.RecoverAfter)
	}
	r.faults.arm(c.insts)

	rng := c.rng
	start := s.Start
	if start <= 0 {
		perPark := c.insts[0].w.Config().SwitchCost + 10*vclock.Microsecond
		start = vclock.Duration(s.Sessions)*perPark + 200*vclock.Millisecond
	}
	t0 := vclock.Time(0).Add(start)
	r.barrier = t0
	if s.ProbeEvery > 0 {
		r.push(t0, &clientEvent{kind: evProbe})
	}
	if s.Requests > 0 {
		r.push(t0.Add(expGap(rng, s.Rate)), &clientEvent{kind: evArrival})
	}

	for {
		for len(r.heap) > 0 {
			e := heap.Pop(&r.heap).(*clientEvent)
			r.advance(e.at)
			switch e.kind {
			case evArrival:
				r.onArrival(e.at)
			case evProbe:
				r.onProbe(e.at)
			case evTimeout:
				r.onTimeout(e.at, e.att)
			case evRetry:
				r.onRetry(e.at, e.req)
			case evHedge:
				r.onHedge(e.at, e.req)
			}
		}
		if r.outstanding == 0 {
			break
		}
		// In-flight work with no scheduled client events (no timeouts
		// configured): let the fleet drain and fold in whatever lands.
		before := r.outstanding
		r.advance(r.barrier.Add(s.Drain))
		if len(r.heap) == 0 && r.outstanding == before {
			break // nothing in flight will ever land
		}
	}

	// Close the pools strictly after the last client action and let the
	// worlds quiesce.
	closeAt := r.barrier.Add(vclock.Microsecond)
	for _, in := range c.insts {
		srv := in.srv
		in.w.At(closeAt, srv.Close)
	}
	c.advanceAll(closeAt.Add(s.Drain))
	r.drainCompletions()

	// Anything still unresolved — queued behind a stall longer than the
	// drain, say — failed from the client's point of view.
	r.failed += r.outstanding
	r.outstanding = 0
	return r.summary(), nil
}

func (r *resilientRun) push(at vclock.Time, e *clientEvent) {
	e.at, e.seq = at, r.seq
	r.seq++
	heap.Push(&r.heap, e)
}

// advance brings every world to t (if t is past the current barrier)
// and applies any tracked completions that landed.
func (r *resilientRun) advance(t vclock.Time) {
	if t.After(r.barrier) {
		r.c.advanceAll(t)
		r.barrier = t
	}
	r.drainCompletions()
}

// drainCompletions folds the instances' Completion buffers into the
// client state machine in (time, instance-ID) order — the only order
// that is independent of how worlds were dealt onto shards.
func (r *resilientRun) drainCompletions() {
	type tagged struct {
		inst int
		cp   workload.Completion
	}
	var all []tagged
	for i, in := range r.c.insts { // instance-ID order
		for _, cp := range in.srv.Drain() {
			all = append(all, tagged{i, cp})
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].cp.At != all[b].cp.At {
			return all[a].cp.At.Before(all[b].cp.At)
		}
		return all[a].inst < all[b].inst
	})
	for _, tc := range all {
		r.onCompletion(tc.inst, tc.cp)
	}
}

func (r *resilientRun) onCompletion(inst int, cp workload.Completion) {
	att := r.tokens[cp.Token]
	delete(r.tokens, cp.Token)
	if att == nil || att.done {
		return // timed out, cancelled, or the request already resolved
	}
	att.done = true
	att.req.pending--
	if cp.OK {
		r.brk[inst].onSuccess()
		if !att.req.resolved {
			r.resolve(att.req, att, cp.At)
		}
		return
	}
	// The instance crashed between admission and response.
	r.lost++
	r.brk[inst].onFailure(cp.At)
	r.attemptFailed(att.req, cp.At)
}

// resolve closes a request as a success, classifies it, and cancels
// any sibling attempts still in flight (the hedge loser).
func (r *resilientRun) resolve(req *creq, winner *attempt, tc vclock.Time) {
	req.resolved = true
	r.outstanding--
	lat := tc.Sub(req.born)
	if req.attempts > 1 || (r.c.spec.DegradedOver > 0 && lat > r.c.spec.DegradedOver) {
		r.degraded++
	} else {
		r.goodput++
	}
	if winner.hedge {
		r.hedgeWins++
	}
	r.clientLat.Add(lat)
	r.phases[r.faults.phaseIdx(req.born)].Add(lat)
	if tc.After(r.lastResolve) {
		r.lastResolve = tc
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
		r.c.insts[a.inst].srv.CancelQueued(a.token)
		r.brk[a.inst].abandon()
		delete(r.tokens, a.token)
	}
}

// attemptFailed is the common tail of every failed attempt: retry if
// the policy and the fleet-wide budget allow, otherwise fail the
// request once nothing else is in flight for it.
func (r *resilientRun) attemptFailed(req *creq, now vclock.Time) {
	if req.resolved {
		return
	}
	s := r.c.spec
	if req.retries < s.Retries {
		if r.budgetAllows() {
			r.retriesIssued++
			req.retries++
			at := now.Add(r.backoff(req.retries))
			if at.Before(r.barrier) {
				at = r.barrier
			}
			r.push(at, &clientEvent{kind: evRetry, req: req})
			return
		}
		r.retriesDenied++
	}
	if req.pending == 0 {
		req.resolved = true
		r.outstanding--
		r.failed++
	}
}

// budgetAllows checks the fleet-wide retry budget: retries may be at
// most RetryBudget × offered-so-far. This is the retry-storm valve —
// per-request retry counts multiply under fleet-wide overload, a
// fleet-wide fraction cannot.
func (r *resilientRun) budgetAllows() bool {
	s := r.c.spec
	if s.RetryBudget <= 0 {
		return true
	}
	return float64(r.retriesIssued+1) <= s.RetryBudget*float64(r.offered)
}

// backoff returns the capped exponential backoff before retry n (1-based).
func (r *resilientRun) backoff(n int) vclock.Duration {
	s := r.c.spec
	d := s.RetryBackoff
	for i := 1; i < n; i++ {
		d *= 2
		if d >= s.RetryBackoffCap {
			return s.RetryBackoffCap
		}
	}
	if d > s.RetryBackoffCap {
		d = s.RetryBackoffCap
	}
	return d
}

// hedgeDelay is how long the client waits before duplicating a request:
// the observed p99 of successes so far, floored at HedgeAfter until
// enough samples accumulate.
func (r *resilientRun) hedgeDelay() vclock.Duration {
	d := r.c.spec.HedgeAfter
	if r.clientLat.Count() >= 20 {
		if p := r.clientLat.Percentile(0.99); p > d {
			d = p
		}
	}
	return d
}

// --- event handlers --------------------------------------------------

func (r *resilientRun) onArrival(t vclock.Time) {
	s := r.c.spec
	r.pendingArrivals--
	r.offered++
	// Same fixed per-arrival draw order as the legacy path: admission
	// first, then user and service only if admitted.
	if !r.c.admit.Admit(t) {
		r.rejected++
	} else {
		user := r.c.drawUser(r.c.rng)
		service := r.c.drawService(r.c.rng)
		r.admitted++
		req := &creq{user: user, service: service, born: t, lastInst: -1}
		r.outstanding++
		if r.firstArrival == vclock.Never {
			r.firstArrival = t
		}
		r.dispatch(req, -1, false, t)
	}
	if r.pendingArrivals > 0 {
		r.push(t.Add(expGap(r.c.rng, s.Rate)), &clientEvent{kind: evArrival})
	}
}

func (r *resilientRun) onProbe(t vclock.Time) {
	if r.health != nil {
		r.health.probe(t, func(i int) bool {
			// A shallow probe sees crashes and stalls, not brownouts.
			return !r.faults.downAt(i, t) && !r.faults.stalledAt(i, t)
		})
	}
	if r.pendingArrivals > 0 || r.outstanding > 0 {
		r.push(t.Add(r.c.spec.ProbeEvery), &clientEvent{kind: evProbe})
	}
}

func (r *resilientRun) onTimeout(t vclock.Time, att *attempt) {
	if att.done || att.req.resolved {
		return
	}
	att.done = true
	att.req.pending--
	r.timeouts++
	r.brk[att.inst].onFailure(t)
	r.c.insts[att.inst].srv.CancelQueued(att.token)
	delete(r.tokens, att.token)
	r.attemptFailed(att.req, t)
}

func (r *resilientRun) onRetry(t vclock.Time, req *creq) {
	if req.resolved {
		return
	}
	r.dispatch(req, req.lastInst, false, t)
}

func (r *resilientRun) onHedge(t vclock.Time, req *creq) {
	if req.resolved || req.hedged || req.pending == 0 {
		// Already answered, already hedged, or the primary failed
		// outright — the retry path owns recovery from failure; hedging
		// only shaves the slow-success tail.
		return
	}
	req.hedged = true
	r.dispatch(req, req.lastInst, true, t)
}

// --- dispatch --------------------------------------------------------

// choose picks the dispatch target: the base router's choice, failed
// over along the instance ring past ejected instances and open
// breakers, skipping `exclude` (the instance a retry or hedge is
// fleeing) unless it is the only healthy choice. Returns -1 when no
// instance is eligible.
func (r *resilientRun) choose(user, exclude int, now vclock.Time) int {
	n := len(r.c.insts)
	var snapshot []int
	if r.c.route.NeedsLoads() {
		for i, in := range r.c.insts {
			r.loads[i] = in.srv.Pending()
			if !r.health.isHealthy(i) {
				r.loads[i] = unhealthyLoad
			}
		}
		snapshot = r.loads
	}
	base := r.c.route.Route(user, snapshot)
	// A rotation router's failover is to keep rotating: skipping an
	// ejected instance by ring-scan would dump its whole share onto the
	// ring successor, while burning a turn per skip spreads it evenly
	// over the healthy remainder. Stateless routers (affinity) re-home
	// by ring-scan below — the pinned user's deterministic fallback.
	if _, rotates := r.c.route.(*roundRobin); rotates {
		for tries := 0; tries < n && !r.health.isHealthy(base); tries++ {
			base = r.c.route.Route(user, snapshot)
		}
	}
	fallback := -1
	for d := 0; d < n; d++ {
		j := (base + d) % n
		if !r.health.isHealthy(j) {
			continue
		}
		if j == exclude {
			if fallback < 0 {
				fallback = j
			}
			continue
		}
		if r.brk[j].allow(now) {
			return j
		}
	}
	if fallback >= 0 && r.brk[fallback].allow(now) {
		return fallback
	}
	return -1
}

func (r *resilientRun) dispatch(req *creq, exclude int, hedge bool, now vclock.Time) {
	inst := r.choose(req.user, exclude, now)
	if inst < 0 {
		if hedge {
			return // opportunistic; the primary is still in flight
		}
		if req.pending > 0 {
			return // something else is still in flight for this request
		}
		req.resolved = true
		r.outstanding--
		if req.attempts == 0 {
			r.shed++ // never dispatched anywhere
		} else {
			r.failed++
		}
		return
	}
	req.attempts++
	req.lastInst = inst
	in := r.c.insts[inst]
	in.routed++
	if r.faults.downAt(inst, now) {
		// Connection refused: instant failure, no service consumed. This
		// is what feeds the breaker fastest — and what the D1 control
		// (no health monitor) keeps paying for.
		r.refused++
		r.brk[inst].onFailure(now)
		if hedge {
			return
		}
		r.attemptFailed(req, now)
		return
	}
	if hedge {
		r.hedges++
	}
	svc := req.service
	if f := r.faults.degradeAt(inst, now); f > 1 {
		svc = vclock.Duration(float64(svc) * f)
	}
	tok := r.nextToken
	r.nextToken++
	att := &attempt{req: req, inst: inst, token: tok, hedge: hedge}
	r.tokens[tok] = att
	req.live = append(req.live, att)
	req.pending++
	srv, sess := in.srv, req.user%r.c.spec.Sessions
	in.w.At(now, func() { srv.InjectTracked(sess, svc, tok) })
	if r.c.spec.Timeout > 0 {
		r.push(now.Add(r.c.spec.Timeout), &clientEvent{kind: evTimeout, att: att})
	}
	if !hedge && !req.hedged && req.attempts == 1 && r.c.spec.HedgeAfter > 0 {
		r.push(now.Add(r.hedgeDelay()), &clientEvent{kind: evHedge, req: req})
	}
}

// --- summary ---------------------------------------------------------

func (r *resilientRun) summary() *Summary {
	c := r.c
	sum := &Summary{
		Preset:    c.spec.Preset,
		Instances: c.spec.Instances,
		Sessions:  c.spec.Sessions,
		Router:    c.spec.Router,
		Admission: c.spec.Admission,
		Seed:      c.spec.Seed,
		Offered:   r.offered,
		Admitted:  r.admitted,
		Rejected:  r.rejected,
		Goodput:   r.goodput,
		Degraded:  r.degraded,
		Shed:      r.shed,
		Failed:    r.failed,
		Completed: r.goodput + r.degraded,
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
	res := &ResilienceSummary{
		Timeouts:      r.timeouts,
		Retries:       r.retriesIssued,
		RetriesDenied: r.retriesDenied,
		Hedges:        r.hedges,
		HedgeWins:     r.hedgeWins,
		Refused:       r.refused,
		Lost:          r.lost,
	}
	for i := range r.brk {
		res.BreakerOpens += r.brk[i].opens
		res.BreakerFastFails += r.brk[i].fastFails
	}
	if r.health != nil {
		res.Ejections = r.health.ejections
		res.Readmissions = r.health.readmissions
		res.RecoveryUs = r.health.ttrMax.Micros()
	}
	// Aggregate percentiles are client-observed (born → answered), not
	// server-side attempt latencies: retries and hedges must not launder
	// the tail. Phase slices carry the before/during/after story.
	agg := &stats.LatencyRecorder{}
	n := 0
	for i := range r.phases {
		n += r.phases[i].Count()
	}
	agg.Grow(n)
	for i := range r.phases {
		ph := &r.phases[i]
		if ph.Count() == 0 {
			continue
		}
		agg.Merge(ph)
		res.Phases = append(res.Phases, PhaseSummary{
			Phase: phaseNames[i],
			Count: int64(ph.Count()),
			P50Us: ph.Percentile(0.50).Micros(),
			P95Us: ph.Percentile(0.95).Micros(),
			P99Us: ph.Percentile(0.99).Micros(),
			MaxUs: ph.Max().Micros(),
		})
	}
	sum.Resilience = res
	if sum.Completed > 0 && r.firstArrival != vclock.Never && r.lastResolve.After(r.firstArrival) {
		w := r.lastResolve.Sub(r.firstArrival)
		sum.WindowUs = w.Micros()
		sum.Throughput = float64(sum.Completed) / w.Seconds()
	}
	sum.P50Us = agg.Percentile(0.50).Micros()
	sum.P95Us = agg.Percentile(0.95).Micros()
	sum.P99Us = agg.Percentile(0.99).Micros()
	sum.MaxUs = agg.Max().Micros()
	return sum
}

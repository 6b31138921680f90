package workload

import (
	"math/rand"

	"repro/internal/eventq"
	"repro/internal/sim"
	"repro/internal/vclock"
	"repro/internal/workload/spec"
)

// This file holds the one arrival process every open-loop kind runs on.
// Each cohort owns a derived RNG stream, so adding a cohort never
// perturbs another's draws, and injects into its own session pool. The
// per-arrival draw order is fixed — session pick, service demand, next
// gap — so recorded traces replay byte-identically. Rate modulation
// scales each drawn gap by 1/factor at the instant of scheduling, so a
// window with factor 2 doubles the cohort's instantaneous rate. When the
// last cohort has injected its last request, every pool is closed at
// once, so idle sessions observe the end and exit as their queues drain.

// arrivals is one cohort's arrival process.
type arrivals struct {
	// name labels the cohort's requests for the tap.
	name     string
	pool     *Server
	rng      *rand.Rand
	gap, svc spec.Sampler
	mod      []spec.Window
	requests int64
	injected int64
	// replay, when set, supplies every arrival instant, session and
	// demand instead of the samplers: no RNG draws at all.
	replay []spec.Entry
	// slot holds the cohort's next arrival: one is pending at a time, so
	// it is a registered timer slot re-armed per arrival, not a queue
	// event.
	slot eventq.Timer
}

// generator drives every cohort of one run. Once left reaches zero the
// cohorts' pools are closed together, in cohort order.
type generator struct {
	w       *sim.World
	tap     RequestTap
	cohorts []*arrivals
	left    int
}

// add registers one cohort. A replayed cohort offers exactly its
// recorded entries.
func (g *generator) add(a *arrivals) {
	if a.replay != nil {
		a.requests = int64(len(a.replay))
	}
	g.w.RegisterTimer(&a.slot, func() { g.arrive(a) })
	g.cohorts = append(g.cohorts, a)
	g.left++
}

// start schedules each cohort's first arrival at start, or at its first
// recorded instant under replay.
func (g *generator) start(start vclock.Duration) {
	for _, a := range g.cohorts {
		first := start
		if a.replay != nil {
			first = vclock.Duration(a.replay[0].AtUS)
		}
		g.schedule(a, first)
	}
}

// schedule arms a's slot d from now (now, if d is negative), in the
// place in the event order an After call made now would take.
func (g *generator) schedule(a *arrivals, d vclock.Duration) {
	g.w.ArmTicket(&a.slot, g.w.Now().Add(max(d, 0)), g.w.Ticket())
}

// arrive injects one request (driver context) and schedules the next.
func (g *generator) arrive(a *arrivals) {
	now := g.w.Now()
	var idx int
	var service vclock.Duration
	if a.replay != nil {
		e := a.replay[a.injected]
		idx, service = e.Session, vclock.Duration(e.ServiceUS)
	} else {
		idx = a.rng.Intn(a.pool.Sessions())
		service = a.svc(a.rng)
	}
	a.pool.Inject(idx, service)
	a.injected++
	if g.tap != nil {
		g.tap(now, a.name, idx, service)
	}
	if a.injected < a.requests {
		g.schedule(a, a.nextGap(now))
		return
	}
	if g.left--; g.left == 0 {
		for _, c := range g.cohorts {
			c.pool.Close()
		}
	}
}

// nextGap returns the delay to the cohort's next arrival: the recorded
// gap under replay, otherwise a fresh draw scaled by the modulation in
// effect now (floored at the clock grain).
func (a *arrivals) nextGap(now vclock.Time) vclock.Duration {
	if a.replay != nil {
		return vclock.Time(0).Add(vclock.Duration(a.replay[a.injected].AtUS)).Sub(now)
	}
	gap := a.gap(a.rng)
	if f := spec.FactorAt(a.mod, now); f != 1 {
		// Quantize saturates: a vanishing factor silences the cohort
		// instead of wrapping the gap onto the floor and flooding it.
		gap = spec.Quantize(float64(gap) / f)
	}
	return gap
}

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
// per-arrival draw order is fixed — session pick, then next gap; the
// service demand is the cohort's constant and draws nothing. When the
// last cohort has injected its last request, every pool is closed at
// once, so idle sessions observe the end and exit as their queues
// drain.

// arrivals is one cohort's arrival process.
type arrivals struct {
	pool     *Server
	rng      *rand.Rand
	gap      spec.Sampler
	svc      vclock.Duration
	requests int64
	injected int64
	// slot holds the cohort's next arrival: one is pending at a time, so
	// it is a registered timer slot re-armed per arrival, not a queue
	// event.
	slot eventq.Timer
}

// generator drives every cohort of one run. Once left reaches zero the
// cohorts' pools are closed together, in cohort order.
type generator struct {
	w       *sim.World
	cohorts []*arrivals
	left    int
}

// add registers one cohort.
func (g *generator) add(a *arrivals) {
	g.w.RegisterTimer(&a.slot, func() { g.arrive(a) })
	g.cohorts = append(g.cohorts, a)
	g.left++
}

// start schedules each cohort's first arrival at start.
func (g *generator) start(start vclock.Duration) {
	for _, a := range g.cohorts {
		g.schedule(a, start)
	}
}

// schedule arms a's slot d from now, in the place in the event order
// an After call made now would take. Every d is positive: the derived
// start delay, or a gap quantized to at least 1us.
func (g *generator) schedule(a *arrivals, d vclock.Duration) {
	g.w.ArmTicket(&a.slot, g.w.Now().Add(d), g.w.Ticket())
}

// arrive injects one request (driver context) and schedules the next.
func (g *generator) arrive(a *arrivals) {
	idx := a.rng.Intn(a.pool.Sessions())
	a.pool.Inject(idx, a.svc)
	a.injected++
	if a.injected < a.requests {
		g.schedule(a, a.gap(a.rng))
		return
	}
	if g.left--; g.left == 0 {
		for _, c := range g.cohorts {
			c.pool.Close()
		}
	}
}

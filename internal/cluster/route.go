package cluster

import (
	"fmt"
	"math"

	"repro/internal/vclock"
)

// Routing policies. A router picks the instance for each admitted
// request; the choice is a pure function of its own state, the request's
// user, and (for load-aware policies) a load snapshot the cluster takes
// at the arrival instant — never of wall-clock time or goroutine
// scheduling, which is what keeps a sharded fleet run byte-identical to
// a serial one.
const (
	RouteRoundRobin  = "rr"
	RouteLeastLoaded = "least-loaded"
	RouteAffinity    = "affinity"
)

// RouterNames returns the valid routing policy names.
func RouterNames() []string {
	return []string{RouteRoundRobin, RouteLeastLoaded, RouteAffinity}
}

type router interface {
	// NeedsLoads reports whether Route consumes a load snapshot. The
	// cluster only pays the advance-to-arrival barrier for policies that
	// need one; blind policies let instances run far behind the arrival
	// front and catch up in bulk.
	NeedsLoads() bool
	// Route returns the target instance index. loads[i] is instance i's
	// pending-request depth at the arrival instant, or nil when
	// NeedsLoads is false.
	Route(user int, loads []int) int
}

func newRouter(name string, instances int) (router, error) {
	switch name {
	case RouteRoundRobin:
		return &roundRobin{n: instances}, nil
	case RouteLeastLoaded:
		return leastLoaded{}, nil
	case RouteAffinity:
		return affinity{n: instances}, nil
	}
	return nil, fmt.Errorf("cluster: no routing policy %q (have %v): %w", name, RouterNames(), ErrInvalidSpec)
}

// roundRobin deals arrivals to instances in strict rotation, the
// baseline that ignores both user identity and load.
type roundRobin struct {
	n    int
	next int
}

func (r *roundRobin) NeedsLoads() bool { return false }

func (r *roundRobin) Route(user int, loads []int) int {
	i := r.next
	r.next = (r.next + 1) % r.n
	return i
}

// leastLoaded sends each arrival to the instance with the fewest
// pending requests, ties broken by lowest index so the choice is
// deterministic.
type leastLoaded struct{}

func (leastLoaded) NeedsLoads() bool { return true }

func (leastLoaded) Route(user int, loads []int) int {
	best := 0
	for i, l := range loads {
		if l < loads[best] {
			best = i
		}
	}
	_ = user
	return best
}

// affinity pins each user to one instance (user mod N) — the sticky-
// session policy. Under a uniform user population it balances like
// round-robin; under a hot-user skew it concentrates the hot users'
// load on their home instances, which is exactly the contrast the
// C-series measures.
type affinity struct {
	n int
}

func (affinity) NeedsLoads() bool { return false }

func (a affinity) Route(user int, loads []int) int { return user % a.n }

// Admission policies. An admitter decides, at each arrival instant,
// whether the request enters the fleet at all; rejected requests are
// counted but consume no downstream resources (and no RNG draws, so an
// admission policy change never re-randomizes the admitted subsequence's
// users or service demands).
const (
	AdmitAlways      = "always"
	AdmitTokenBucket = "token-bucket"
)

// AdmitterNames returns the valid admission policy names.
func AdmitterNames() []string {
	return []string{AdmitAlways, AdmitTokenBucket}
}

type admitter interface {
	Admit(now vclock.Time) bool
}

func newAdmitter(name string, rate, burst float64) (admitter, error) {
	switch name {
	case AdmitAlways:
		return alwaysAdmit{}, nil
	case AdmitTokenBucket:
		if !(rate > 0) || math.IsInf(rate, 1) || !(burst >= 1) {
			return nil, fmt.Errorf("cluster: token-bucket needs rate > 0 and burst >= 1 (got rate=%v burst=%v): %w",
				rate, burst, ErrInvalidSpec)
		}
		return &tokenBucket{rate: rate, burst: burst, tokens: burst}, nil
	}
	return nil, fmt.Errorf("cluster: no admission policy %q (have %v): %w", name, AdmitterNames(), ErrInvalidSpec)
}

type alwaysAdmit struct{}

func (alwaysAdmit) Admit(vclock.Time) bool { return true }

// tokenBucket refills in virtual time: rate tokens per virtual second up
// to burst, one token per admitted request. Purely arithmetic over the
// arrival clock — no randomness, no wall time — so it is as
// deterministic as the arrival process itself.
type tokenBucket struct {
	rate   float64 // tokens per virtual second
	burst  float64
	tokens float64
	last   vclock.Time
}

func (b *tokenBucket) Admit(now vclock.Time) bool {
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Package cluster advances a fleet of independently-seeded sim.Worlds
// under one shared virtual clock, with pluggable request routing and
// admission control in front and cross-instance SLO aggregation behind.
//
// The paper studies one workstation's thread population; the ROADMAP
// north star is a production-scale service, and this package is the
// step between them: each instance is a full single-machine simulation
// (a W1 echo server, or a Cedar/GVX desktop with routed sessions on
// top), and the cluster is the part of the system the paper never had —
// the load balancer and the admission valve.
//
// Determinism is the design constraint everything else bends around.
// The fleet's arrival process, user identities, service demands,
// admission decisions, and routing choices are all drawn on the
// cluster's own derived streams and pure state, never from any world's
// live RNG; instances interact with the driver only at advance
// barriers; and aggregation folds per-instance recorders in instance-ID
// order. The result: the same Spec produces byte-identical summaries
// whether instances advance serially or on GOMAXPROCS shards.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/eventq"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/vclock"
	"repro/internal/workload"
	wspec "repro/internal/workload/spec"
)

// Spec is one cluster run's complete configuration. The zero value is
// not runnable; fill at least Instances, Sessions, Requests and Rate.
type Spec struct {
	// Preset names the per-instance world recipe (workload.Presets):
	// "w1-echo", "cedar", or "gvx". Empty selects w1-echo.
	Preset string
	// Instances is the fleet size.
	Instances int
	// Sessions is the session-thread pool size per instance.
	Sessions int
	// Router selects the routing policy: "rr", "least-loaded",
	// "affinity". Empty selects rr.
	Router string
	// Admission selects the admission policy: "always", "token-bucket".
	// Empty selects always.
	Admission string
	// Seed seeds the cluster's arrival/identity/demand streams and,
	// offset per instance, each world.
	Seed int64
	// Requests is the total offered load (pre-admission).
	Requests int64
	// Rate is the aggregate Poisson arrival rate, requests per virtual
	// second across the whole fleet.
	Rate float64
	// Service is the base CPU demand per request. Zero selects 5us.
	Service vclock.Duration
	// Users is the distinct user population driving affinity routing
	// and hot-user skew. Zero selects Sessions.
	Users int
	// HotUsers and HotFraction impose skew: HotFraction of arrivals
	// come from the first HotUsers users. Zero HotUsers disables skew.
	HotUsers    int
	HotFraction float64
	// HeavyFraction and HeavyFactor impose a heavy service tail:
	// HeavyFraction of admitted requests cost Service*HeavyFactor.
	HeavyFraction float64
	HeavyFactor   int
	// TokenRate and TokenBurst parameterize token-bucket admission
	// (tokens per virtual second, bucket capacity).
	TokenRate  float64
	TokenBurst float64
	// Start delays the first arrival so freshly spawned populations can
	// park; zero selects a bound derived from the population size. No
	// arrival comes before it.
	Start vclock.Duration
	// Drain is how long past the last arrival the fleet runs to let
	// queues empty. Zero selects 60 virtual seconds.
	Drain vclock.Duration
	// Shards is the advance parallelism: worlds are dealt round-robin
	// onto this many goroutines at each barrier. Zero or one advances
	// serially. Output is byte-identical at any shard count.
	Shards int
	// Hooks carries observability seams (probe, profiler attachment)
	// into every instance world. Observe-only hooks never change the
	// summary; sim.Probe and profile.Set are safe under sharded advance.
	Hooks sim.Hooks

	// --- Fault injection and resilience (all optional). Setting any of
	// these makes every request carry client state, tracked from
	// arrival to resolution, and adds a Resilience ledger to the
	// summary; see resilience.go. ---

	// Faults is the cluster-scoped fault plan; only instance-scoped
	// kinds (crash_instance / stall_instance / degrade_instance) are
	// accepted. Fault times are offsets from virtual time zero.
	// AnyInstance victim picks draw from a stream seeded by
	// Seed+faultSeedOffset, so they never alias workload randomness.
	Faults *fault.Plan
	// ProbeEvery enables the health monitor: every instance is probed at
	// this period, ejected from routing after failAfter (3) consecutive
	// failures and re-admitted after recoverAfter (2) consecutive
	// successes. Zero disables health-aware routing entirely.
	ProbeEvery vclock.Duration
	// Timeout is the client's per-attempt deadline. Zero disables.
	Timeout vclock.Duration
	// Retries caps client retries per request beyond the first attempt,
	// with capped exponential backoff: RetryBackoff (default 1ms)
	// doubling up to backoffCapFactor (8) times RetryBackoff.
	Retries      int
	RetryBackoff vclock.Duration
	// RetryBudget caps fleet-wide retries at this fraction of offered
	// arrivals so far — the retry-storm valve. Zero leaves retries
	// unmetered.
	RetryBudget float64
	// HedgeAfter enables tail-latency hedging: an unanswered request is
	// duplicated to a second instance after max(HedgeAfter, observed
	// p99); first response wins, the loser is cancelled. Zero disables.
	HedgeAfter vclock.Duration
	// BreakerAfter enables a per-instance circuit breaker: BreakerAfter
	// consecutive failures open it for BreakerOpenFor (default 25ms),
	// then half-open admits one trial. Zero disables.
	BreakerAfter   int
	BreakerOpenFor vclock.Duration
	// DegradedOver classifies successes slower than this as degraded
	// rather than goodput even when served by the first attempt. Zero
	// means only retried/hedged successes count as degraded.
	DegradedOver vclock.Duration
}

// resilient reports whether requests carry client state: a token per
// attempt, tracked completions, and the retry/hedge/breaker machinery
// over them. It also decides whether the summary has a Resilience
// ledger. A non-nil (even empty) fault plan qualifies: the caller asked
// for fault semantics and gets the full accounting with it.
func (s Spec) resilient() bool {
	return s.Faults != nil || s.ProbeEvery > 0 || s.Timeout > 0 || s.Retries > 0 ||
		s.HedgeAfter > 0 || s.BreakerAfter > 0 || s.DegradedOver > 0
}

// Fixed resilience parameters.
const (
	faultSeedOffset  = 0xfa017 // AnyInstance victim picks seed from Seed+faultSeedOffset
	failAfter        = 3       // consecutive probe failures that eject an instance
	recoverAfter     = 2       // consecutive probe successes that re-admit it
	backoffCapFactor = 8       // retry backoff cap, as a multiple of RetryBackoff
)

// withDefaults returns the spec with zero knobs resolved.
func (s Spec) withDefaults() Spec {
	if s.Preset == "" {
		s.Preset = "w1-echo"
	}
	if s.Router == "" {
		s.Router = RouteRoundRobin
	}
	if s.Admission == "" {
		s.Admission = AdmitAlways
	}
	if s.Service <= 0 {
		s.Service = 5 * vclock.Microsecond
	}
	if s.Users <= 0 {
		s.Users = s.Sessions
	}
	if s.HeavyFactor < 1 {
		s.HeavyFactor = 1
	}
	if s.Drain <= 0 {
		s.Drain = 60 * vclock.Second
	}
	if s.Shards < 1 {
		s.Shards = 1
	}
	if s.Start <= 0 {
		perPark := sim.Config{}.Defaults().SwitchCost + 10*vclock.Microsecond
		s.Start = vclock.Duration(s.Sessions)*perPark + 200*vclock.Millisecond
	}
	if s.Retries > 0 && s.RetryBackoff <= 0 {
		s.RetryBackoff = vclock.Millisecond
	}
	if s.BreakerAfter > 0 && s.BreakerOpenFor <= 0 {
		s.BreakerOpenFor = 25 * vclock.Millisecond
	}
	return s
}

// ErrInvalidSpec is the sentinel every Spec validation failure wraps,
// in the style of wspec.ErrInvalidSpec: callers gate on
// errors.Is(err, ErrInvalidSpec) and print the wrapped detail.
var ErrInvalidSpec = errors.New("cluster: invalid spec")

// Size limits. validate rejects a spec past any of them, so a mistyped
// or hostile spec fails at once instead of exhausting memory. Each sits
// well above every shipped experiment and benchmark fleet; the largest,
// perfbench's echo-fleet, is 16 instances of 1,000 sessions offered
// 120,000 requests.
const (
	// MaxInstances bounds the fleet size.
	MaxInstances = 1024
	// MaxSessions bounds one instance's session pool; it is the
	// workload spec limit on the pool each instance compiles.
	MaxSessions = wspec.MaxSessions
	// MaxFleetSessions bounds Instances × Sessions, the fleet's total
	// session-thread population.
	MaxFleetSessions = 65_536
	// MaxRequests bounds the offered load.
	MaxRequests = 1_000_000
	// MaxUsers bounds the user population.
	MaxUsers = 1 << 20
)

// validate checks a defaulted spec; every error wraps ErrInvalidSpec.
// The float checks are written so that NaN fails them.
func (s Spec) validate() error {
	if s.Instances < 1 || s.Instances > MaxInstances {
		return fmt.Errorf("cluster: Instances must be in [1, %d] (got %d): %w", MaxInstances, s.Instances, ErrInvalidSpec)
	}
	if s.Sessions < 1 || s.Sessions > MaxSessions {
		return fmt.Errorf("cluster: Sessions must be in [1, %d] (got %d): %w", MaxSessions, s.Sessions, ErrInvalidSpec)
	}
	if n := s.Instances * s.Sessions; n > MaxFleetSessions {
		return fmt.Errorf("cluster: Instances x Sessions must be <= %d (got %d): %w", MaxFleetSessions, n, ErrInvalidSpec)
	}
	if s.Requests < 1 || s.Requests > MaxRequests {
		return fmt.Errorf("cluster: Requests must be in [1, %d] (got %d): %w", MaxRequests, s.Requests, ErrInvalidSpec)
	}
	if s.Users > MaxUsers {
		return fmt.Errorf("cluster: Users must be <= %d (got %d): %w", MaxUsers, s.Users, ErrInvalidSpec)
	}
	if !(s.Rate > 0) || math.IsInf(s.Rate, 1) {
		return fmt.Errorf("cluster: Rate must be > 0 (got %v): %w", s.Rate, ErrInvalidSpec)
	}
	if s.HotUsers < 0 || s.HotUsers >= s.Users && s.HotUsers > 0 {
		return fmt.Errorf("cluster: HotUsers must be in [0, Users) (got %d of %d): %w", s.HotUsers, s.Users, ErrInvalidSpec)
	}
	if !(s.HotFraction >= 0 && s.HotFraction <= 1) {
		return fmt.Errorf("cluster: HotFraction must be in [0,1] (got %v): %w", s.HotFraction, ErrInvalidSpec)
	}
	if !(s.HeavyFraction >= 0 && s.HeavyFraction <= 1) {
		return fmt.Errorf("cluster: HeavyFraction must be in [0,1] (got %v): %w", s.HeavyFraction, ErrInvalidSpec)
	}
	for _, d := range []struct {
		name string
		v    vclock.Duration
	}{
		{"ProbeEvery", s.ProbeEvery}, {"Timeout", s.Timeout},
		{"HedgeAfter", s.HedgeAfter}, {"BreakerOpenFor", s.BreakerOpenFor},
		{"DegradedOver", s.DegradedOver},
	} {
		if d.v < 0 {
			return fmt.Errorf("cluster: %s must be >= 0 (got %v): %w", d.name, d.v, ErrInvalidSpec)
		}
	}
	if s.Retries < 0 {
		return fmt.Errorf("cluster: Retries must be >= 0 (got %d): %w", s.Retries, ErrInvalidSpec)
	}
	if !(s.RetryBudget >= 0) {
		return fmt.Errorf("cluster: RetryBudget must be >= 0 (got %v): %w", s.RetryBudget, ErrInvalidSpec)
	}
	if s.BreakerAfter < 0 {
		return fmt.Errorf("cluster: BreakerAfter must be >= 0 (got %d): %w", s.BreakerAfter, ErrInvalidSpec)
	}
	return nil
}

// instance is one fleet member: a world, its routed-request server, the
// routing ledger, and the inbox that feeds routed requests to the world
// (inbox.go) through a timer slot in the world's queue bound to deliver.
type instance struct {
	id     int
	w      *sim.World
	srv    *workload.Server
	routed int64

	box  inbox
	pump eventq.Timer // armed while box's oldest injection is queued in w

	// due is a lower bound on the earlier of w's next event and box's
	// oldest injection: advance sets it from w.NextEvent, send and the
	// closing Close lower it, and a barrier runs the world only when due
	// has come. It starts at zero, so a world's first barrier runs it.
	due vclock.Time
}

// Cluster is a built fleet, ready to Run once.
type Cluster struct {
	spec   Spec
	preset workload.Preset
	insts  []*instance
	route  router
	admit  admitter
	faults *instanceFaults // compiled fault timelines; empty when fault-free
	rng    *rand.Rand      // arrival/identity/demand stream, owned by Run
	ran    bool

	// advanced lists, in barrier and instance-ID order, the instances
	// run since the driver last drained their completions; shards
	// waits for advanceAll's shard goroutines.
	advanced []*instance
	shards   sync.WaitGroup
}

// New builds the fleet: N worlds seeded Seed+f(id), each populated with
// the preset's background activity plus a session pool drawing names
// from one shared table (static state is per-fleet, not per-world).
func New(spec Spec) (*Cluster, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	preset, err := workload.FindPreset(spec.Preset)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w: %w", err, ErrInvalidSpec)
	}
	route, err := newRouter(spec.Router, spec.Instances)
	if err != nil {
		return nil, err
	}
	admit, err := newAdmitter(spec.Admission, spec.TokenRate, spec.TokenBurst)
	if err != nil {
		return nil, err
	}
	// Compile eagerly: a bad plan (thread-scoped kinds, out-of-range
	// instance) fails at New, before any world exists to leak.
	faults, err := compileFaults(spec.Faults, spec.Instances, spec.Seed+faultSeedOffset)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrInvalidSpec)
	}
	c := &Cluster{spec: spec, preset: preset, route: route, admit: admit, faults: faults,
		advanced: make([]*instance, 0, spec.Instances)}
	names := workload.NewNameTable("echo", spec.Sessions)
	// Each instance world is one "server" workload spec: the preset's
	// background population plus a passive session pool, compiled
	// through the same StartSpec entry point every other workload uses.
	wsp := &wspec.Spec{
		Schema:       wspec.Schema,
		Name:         "cluster-" + spec.Preset,
		Kind:         wspec.KindServer,
		Background:   spec.Preset,
		SystemDaemon: true,
		Cohorts: []wspec.Cohort{
			{Name: "echo", Sessions: spec.Sessions, Priority: "normal"},
		},
	}
	for i := 0; i < spec.Instances; i++ {
		w := sim.NewWorld(sim.Config{
			Seed:         spec.Seed + int64(i+1)*1_000_003,
			SystemDaemon: wsp.SystemDaemon,
			Hooks:        spec.Hooks,
		})
		run, err := workload.StartSpec(w, wsp, workload.SpecOptions{Names: names})
		if err != nil {
			w.Shutdown()
			c.Shutdown()
			return nil, err
		}
		in := &instance{id: i, w: w, srv: run.Server}
		w.RegisterTimer(&in.pump, in.deliver)
		c.insts = append(c.insts, in)
	}
	return c, nil
}

// Shutdown tears down every instance world. Safe to call more than once.
func (c *Cluster) Shutdown() {
	for _, in := range c.insts {
		in.w.Shutdown()
	}
}

// expGap draws one exponential inter-arrival gap (mean 1/rate virtual
// seconds) quantized to the microsecond clock with a 1us floor, so the
// fleet arrival clock is strictly increasing.
func expGap(rng *rand.Rand, rate float64) vclock.Duration {
	return wspec.Quantize(rng.ExpFloat64() / rate * 1e6)
}

// drawUser picks the arriving user, honoring the hot-user skew.
func (c *Cluster) drawUser(rng *rand.Rand) int {
	s := &c.spec
	if s.HotUsers > 0 && rng.Float64() < s.HotFraction {
		return rng.Intn(s.HotUsers)
	}
	if s.HotUsers > 0 {
		return s.HotUsers + rng.Intn(s.Users-s.HotUsers)
	}
	return rng.Intn(s.Users)
}

// drawService picks the request's CPU demand, honoring the heavy tail.
func (c *Cluster) drawService(rng *rand.Rand) vclock.Duration {
	s := &c.spec
	if s.HeavyFraction > 0 && rng.Float64() < s.HeavyFraction {
		return s.Service * vclock.Duration(s.HeavyFactor)
	}
	return s.Service
}

// advanceAll brings every instance world to t. It runs only the worlds
// whose due bound has come (instance.advance): a world that has run and
// has nothing due by t would change nothing but its clock, and with
// client state that is most worlds at most barriers. The worlds it runs
// are dealt round-robin across the spec's advance shards; the barrier's
// own goroutine takes the first shard, so a barrier with at most one
// world due starts no goroutine, and one over idle worlds allocates
// nothing. Instances are mutually independent between barriers — no
// shared mutable state, each world advanced by exactly one goroutine —
// so the shard count changes wall-clock time only, never simulated
// state.
func (c *Cluster) advanceAll(t vclock.Time) {
	k := len(c.advanced)
	for _, in := range c.insts {
		if in.due <= t {
			c.advanced = append(c.advanced, in)
		}
	}
	due := c.advanced[k:]
	shards := min(c.spec.Shards, len(due))
	for s := 1; s < shards; s++ {
		c.shards.Add(1)
		go func(s int) {
			advanceShard(due, s, shards, t)
			c.shards.Done()
		}(s)
	}
	if shards > 0 {
		advanceShard(due, 0, shards, t)
	}
	c.shards.Wait()
	if afterBarrier != nil {
		afterBarrier(c)
	}
}

// advanceShard runs shard s of n: every n-th world of due from the s-th.
func advanceShard(due []*instance, s, n int, t vclock.Time) {
	for i := s; i < len(due); i += n {
		due[i].advance(t)
	}
}

// afterBarrier, when set, is called at the end of every advanceAll. It
// is nil outside this package's tests, which check the due bounds there.
var afterBarrier func(*Cluster)

// Run drives the fleet through its offered load and returns the
// aggregated summary. It may be called once per Cluster. The driver
// itself lives in resilience.go.
func (c *Cluster) Run() (*Summary, error) {
	if c.ran {
		return nil, fmt.Errorf("cluster: Run called twice")
	}
	c.ran = true
	c.rng = rand.New(rand.NewSource(c.spec.Seed))
	return newDriver(c).run(), nil
}

// InstanceSummary is one fleet member's slice of the aggregate. All
// durations are integer virtual microseconds, so the JSON encoding is
// exact and platform-independent.
type InstanceSummary struct {
	ID         int     `json:"id"`
	Routed     int64   `json:"routed"`
	Completed  int64   `json:"completed"`
	Throughput float64 `json:"throughput_rps"`
	P50Us      int64   `json:"p50_us"`
	P95Us      int64   `json:"p95_us"`
	P99Us      int64   `json:"p99_us"`
	MaxUs      int64   `json:"max_us"`
}

// Summary is one cluster run's result. Aggregate percentiles are exact
// nearest-rank over the union of every instance's samples (not an
// average of per-instance percentiles), via stats.LatencyRecorder.Merge.
// The advance shard count is deliberately absent: it must not — and
// therefore cannot — appear in the output.
type Summary struct {
	Preset    string `json:"preset"`
	Instances int    `json:"instances"`
	Sessions  int    `json:"sessions_per_instance"`
	Router    string `json:"router"`
	Admission string `json:"admission"`
	Seed      int64  `json:"seed"`
	Offered   int64  `json:"offered"`
	Admitted  int64  `json:"admitted"`
	Rejected  int64  `json:"rejected"`
	Completed int64  `json:"completed"`
	// Graceful-degradation buckets. Every offered request lands in
	// exactly one: offered == rejected + shed + failed + degraded +
	// goodput. Without client state (no resilience knob set) goodput is
	// simply completed and shed/degraded are zero.
	Goodput     int64              `json:"goodput"`
	Degraded    int64              `json:"degraded"`
	Shed        int64              `json:"shed"`
	Failed      int64              `json:"failed"`
	WindowUs    int64              `json:"window_us"`
	Throughput  float64            `json:"throughput_rps"`
	P50Us       int64              `json:"p50_us"`
	P95Us       int64              `json:"p95_us"`
	P99Us       int64              `json:"p99_us"`
	MaxUs       int64              `json:"max_us"`
	PerInstance []InstanceSummary  `json:"per_instance"`
	Resilience  *ResilienceSummary `json:"resilience,omitempty"`
}

// PhaseSummary is the client-observed latency of successes born in one
// fault phase (before / during / after the compiled fault span).
type PhaseSummary struct {
	Phase string `json:"phase"`
	Count int64  `json:"count"`
	P50Us int64  `json:"p50_us"`
	P95Us int64  `json:"p95_us"`
	P99Us int64  `json:"p99_us"`
	MaxUs int64  `json:"max_us"`
}

// ResilienceSummary is a resilient run's mechanism ledger: how
// often each policy fired, what the fleet lost, and how long the health
// monitor took to notice and recover.
type ResilienceSummary struct {
	Timeouts         int64          `json:"timeouts"`
	Retries          int64          `json:"retries"`
	RetriesDenied    int64          `json:"retries_denied"` // suppressed by the retry budget
	Hedges           int64          `json:"hedges"`
	HedgeWins        int64          `json:"hedge_wins"`
	Refused          int64          `json:"refused"` // dispatched at a down instance
	Lost             int64          `json:"lost"`    // response died with a crash
	BreakerOpens     int64          `json:"breaker_opens"`
	BreakerFastFails int64          `json:"breaker_fast_fails"`
	Ejections        int64          `json:"ejections"`
	Readmissions     int64          `json:"readmissions"`
	RecoveryUs       int64          `json:"recovery_us"` // slowest eject-to-readmit
	Phases           []PhaseSummary `json:"phases,omitempty"`
}

// Run builds a fleet from spec, runs it, and tears it down.
func Run(spec Spec) (*Summary, error) {
	c, err := New(spec)
	if err != nil {
		return nil, err
	}
	defer c.Shutdown()
	return c.Run()
}

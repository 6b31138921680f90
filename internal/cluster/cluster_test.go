package cluster

import (
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/vclock"
)

// smallSpec is a quick fleet that still exercises queueing: 4 instances,
// aggregate rate high enough that sessions overlap requests.
func smallSpec() Spec {
	return Spec{
		Preset:    "w1-echo",
		Instances: 4,
		Sessions:  16,
		Router:    RouteRoundRobin,
		Admission: AdmitAlways,
		Seed:      7,
		Requests:  2000,
		Rate:      20_000,
		Service:   20 * vclock.Microsecond,
	}
}

func mustRun(t *testing.T, spec Spec) *Summary {
	t.Helper()
	sum, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func marshal(t *testing.T, sum *Summary) string {
	t.Helper()
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The acceptance-criterion suite: the same spec run with 1, 2, and
// GOMAXPROCS advance shards produces byte-identical aggregated JSON,
// for both a lazy-advance policy (rr) and a per-arrival-barrier policy
// (least-loaded).
func TestShardDeterminism(t *testing.T) {
	shardCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, routerName := range []string{RouteRoundRobin, RouteLeastLoaded} {
		t.Run(routerName, func(t *testing.T) {
			spec := smallSpec()
			spec.Router = routerName
			var want string
			for _, shards := range shardCounts {
				spec.Shards = shards
				got := marshal(t, mustRun(t, spec))
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("shards=%d changed the summary\nwant:\n%s\ngot:\n%s", shards, want, got)
				}
			}
		})
	}
}

// A barrier over idle worlds runs none of them and allocates nothing,
// serially and on shards: it starts no goroutine and keeps no closure.
func TestIdleBarrierAllocs(t *testing.T) {
	for _, shards := range []int{1, 2} {
		spec := smallSpec()
		spec.Shards = shards
		c, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		at := vclock.Time(0).Add(c.spec.Start)
		c.advanceAll(at) // each world's first barrier runs it
		if len(c.advanced) != len(c.insts) {
			t.Fatalf("shards %d: the first barrier ran %d of %d worlds", shards, len(c.advanced), len(c.insts))
		}
		c.advanced = c.advanced[:0]
		if got := testing.AllocsPerRun(100, func() { c.advanceAll(at) }); got != 0 {
			t.Errorf("shards %d: an idle barrier allocates %.1f times, want 0", shards, got)
		}
		if len(c.advanced) != 0 {
			t.Errorf("shards %d: idle barriers ran %d worlds", shards, len(c.advanced))
		}
	}
}

// The closing advance runs every world, since each has its pool's Close
// due, so every world ends at the same clock even when the drain is
// shorter than the SystemDaemon's 100ms period and most worlds have
// nothing else due by its end.
func TestClosingAdvanceRunsEveryWorld(t *testing.T) {
	for _, shards := range []int{1, 2} {
		spec := smallSpec()
		spec.Drain = vclock.Millisecond
		spec.Shards = shards
		c, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		for _, in := range c.insts {
			if now, want := in.w.Now(), c.insts[0].w.Now(); now != want {
				t.Errorf("shards %d: instance %d ended at %v, instance 0 at %v", shards, in.id, now, want)
			}
		}
	}
}

// Re-running an identical spec must reproduce the identical summary —
// the single-shard determinism baseline the shard suite builds on.
func TestRerunDeterminism(t *testing.T) {
	a := marshal(t, mustRun(t, smallSpec()))
	b := marshal(t, mustRun(t, smallSpec()))
	if a != b {
		t.Fatalf("identical specs diverged:\n%s\nvs\n%s", a, b)
	}
}

// Every offered request is accounted for: admitted+rejected=offered,
// routed sums to admitted, and with a generous drain everything
// admitted completes.
func TestConservation(t *testing.T) {
	sum := mustRun(t, smallSpec())
	if sum.Offered != 2000 {
		t.Fatalf("offered = %d, want 2000", sum.Offered)
	}
	if sum.Admitted+sum.Rejected != sum.Offered {
		t.Fatalf("admitted %d + rejected %d != offered %d", sum.Admitted, sum.Rejected, sum.Offered)
	}
	var routed int64
	for _, in := range sum.PerInstance {
		routed += in.Routed
	}
	if routed != sum.Admitted {
		t.Fatalf("sum of routed = %d, want admitted %d", routed, sum.Admitted)
	}
	if sum.Completed != sum.Admitted {
		t.Fatalf("completed = %d, want %d (drain should empty the queues)", sum.Completed, sum.Admitted)
	}
	if sum.Rejected != 0 {
		t.Fatalf("always-admit rejected %d", sum.Rejected)
	}
	if sum.P50Us <= 0 || sum.P99Us < sum.P95Us || sum.P95Us < sum.P50Us || sum.MaxUs < sum.P99Us {
		t.Fatalf("percentiles not monotone: p50=%d p95=%d p99=%d max=%d", sum.P50Us, sum.P95Us, sum.P99Us, sum.MaxUs)
	}
	if sum.Throughput <= 0 || sum.WindowUs <= 0 {
		t.Fatalf("degenerate window: throughput=%v window=%dus", sum.Throughput, sum.WindowUs)
	}
}

// Round-robin deals admitted requests evenly: instance routed counts
// differ by at most one.
func TestRoundRobinBalance(t *testing.T) {
	sum := mustRun(t, smallSpec())
	min, max := sum.PerInstance[0].Routed, sum.PerInstance[0].Routed
	for _, in := range sum.PerInstance {
		if in.Routed < min {
			min = in.Routed
		}
		if in.Routed > max {
			max = in.Routed
		}
	}
	if max-min > 1 {
		t.Fatalf("rr imbalance: min=%d max=%d", min, max)
	}
}

// Affinity pins users to instances; with a hot-user skew the hot users'
// home instances must carry visibly more load than under round-robin.
func TestAffinitySkewConcentratesLoad(t *testing.T) {
	spec := smallSpec()
	spec.Router = RouteAffinity
	spec.Users = 64
	spec.HotUsers = 2
	spec.HotFraction = 0.5
	sum := mustRun(t, spec)
	// Users 0 and 1 live on instances 0 and 1; together they absorb the
	// hot half of the load on top of their uniform share.
	hot := sum.PerInstance[0].Routed + sum.PerInstance[1].Routed
	cold := sum.PerInstance[2].Routed + sum.PerInstance[3].Routed
	if hot <= cold*3/2 {
		t.Fatalf("affinity skew did not concentrate: hot instances %d vs cold %d", hot, cold)
	}
}

// Least-loaded must spread a heavy-tailed workload more evenly than a
// blind policy: no instance's pending depth is allowed to run away, so
// the worst instance p99 stays at or below round-robin's.
func TestLeastLoadedBeatsRoundRobinOnTails(t *testing.T) {
	base := smallSpec()
	base.Requests = 1500
	base.Rate = 40_000
	base.Service = 30 * vclock.Microsecond
	base.HeavyFraction = 0.05
	base.HeavyFactor = 40

	rr := base
	rr.Router = RouteRoundRobin
	ll := base
	ll.Router = RouteLeastLoaded
	rrSum, llSum := mustRun(t, rr), mustRun(t, ll)
	if llSum.P99Us > rrSum.P99Us {
		t.Fatalf("least-loaded p99 %dus worse than rr %dus under heavy tail", llSum.P99Us, rrSum.P99Us)
	}
}

// Token-bucket admission under 2x overload rejects roughly half the
// offered load, and the rejected requests never reach any instance.
func TestTokenBucketRejects(t *testing.T) {
	spec := smallSpec()
	spec.Admission = AdmitTokenBucket
	spec.Rate = 20_000
	spec.TokenRate = 10_000
	spec.TokenBurst = 10
	sum := mustRun(t, spec)
	if sum.Rejected == 0 {
		t.Fatal("2x overload through a 1x bucket rejected nothing")
	}
	frac := float64(sum.Rejected) / float64(sum.Offered)
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("rejected fraction %.2f, want ~0.5", frac)
	}
	var routed int64
	for _, in := range sum.PerInstance {
		routed += in.Routed
	}
	if routed != sum.Admitted {
		t.Fatalf("routed %d != admitted %d", routed, sum.Admitted)
	}
}

// Admission decisions must not re-randomize the admitted subsequence:
// with token-bucket on, every admitted request's user/service draws are
// the same as they would have been for those arrivals under always-
// admit, so per-instance session spread stays sane. We verify the
// cheaper invariant directly: rejected+admitted accounting and
// determinism under the policy.
func TestTokenBucketDeterminism(t *testing.T) {
	spec := smallSpec()
	spec.Admission = AdmitTokenBucket
	spec.TokenRate = 10_000
	spec.TokenBurst = 10
	a := marshal(t, mustRun(t, spec))
	spec.Shards = runtime.GOMAXPROCS(0)
	b := marshal(t, mustRun(t, spec))
	if a != b {
		t.Fatalf("token-bucket summary diverged across shard counts:\n%s\nvs\n%s", a, b)
	}
}

// The cedar and gvx presets run routed sessions on top of the paper-era
// background population; the fleet still drains and aggregates.
func TestBackgroundPresets(t *testing.T) {
	for _, preset := range []string{"cedar", "gvx"} {
		t.Run(preset, func(t *testing.T) {
			spec := Spec{
				Preset:    preset,
				Instances: 2,
				Sessions:  8,
				Seed:      3,
				Requests:  200,
				Rate:      2000,
				Service:   50 * vclock.Microsecond,
				Drain:     10 * vclock.Second,
			}
			sum := mustRun(t, spec)
			if sum.Completed == 0 {
				t.Fatal("no requests completed under background preset")
			}
			if sum.Completed != sum.Admitted {
				t.Fatalf("completed %d != admitted %d", sum.Completed, sum.Admitted)
			}
			spec.Shards = 2
			if a, b := marshal(t, sum), marshal(t, mustRun(t, spec)); a != b {
				t.Fatalf("%s preset diverged across shard counts", preset)
			}
		})
	}
}

// Spec validation rejects unrunnable fleets with diagnostics.
func TestSpecValidation(t *testing.T) {
	// want is set on the rows Spec.validate rejects: their error must
	// wrap ErrInvalidSpec and its text still name the field and the rule
	// it broke. The other rows fail later in New.
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no instances", func(s *Spec) { s.Instances = 0 }, "cluster: Instances must be in [1, 1024] (got 0)"},
		{"no sessions", func(s *Spec) { s.Sessions = 0 }, "cluster: Sessions must be in [1, 16384] (got 0)"},
		{"no requests", func(s *Spec) { s.Requests = 0 }, "cluster: Requests must be in [1, 1000000] (got 0)"},
		{"no rate", func(s *Spec) { s.Rate = 0 }, "cluster: Rate must be > 0 (got 0)"},
		{"bad preset", func(s *Spec) { s.Preset = "vax" }, ""},
		{"bad router", func(s *Spec) { s.Router = "random" }, ""},
		{"bad admission", func(s *Spec) { s.Admission = "maybe" }, ""},
		{"hot users exceed users", func(s *Spec) { s.Users = 4; s.HotUsers = 9 }, "cluster: HotUsers must be in [0, Users) (got 9 of 4)"},
		{"negative hot users", func(s *Spec) { s.HotUsers = -1 }, "cluster: HotUsers must be in [0, Users) (got -1 of 16)"},
		{"hot fraction out of range", func(s *Spec) { s.HotUsers = 1; s.HotFraction = 1.5 }, "cluster: HotFraction must be in [0,1] (got 1.5)"},
		{"heavy fraction out of range", func(s *Spec) { s.HeavyFraction = -0.2 }, "cluster: HeavyFraction must be in [0,1] (got -0.2)"},
		{"negative probe interval", func(s *Spec) { s.ProbeEvery = -1 }, "cluster: ProbeEvery must be >= 0"},
		{"negative timeout", func(s *Spec) { s.Timeout = -1 }, "cluster: Timeout must be >= 0"},
		{"negative hedge delay", func(s *Spec) { s.HedgeAfter = -1 }, "cluster: HedgeAfter must be >= 0"},
		{"negative breaker open time", func(s *Spec) { s.BreakerOpenFor = -1 }, "cluster: BreakerOpenFor must be >= 0"},
		{"negative degraded bound", func(s *Spec) { s.DegradedOver = -1 }, "cluster: DegradedOver must be >= 0"},
		{"negative retries", func(s *Spec) { s.Retries = -1 }, "cluster: Retries must be >= 0 (got -1)"},
		{"negative retry budget", func(s *Spec) { s.RetryBudget = -0.5 }, "cluster: RetryBudget must be >= 0 (got -0.5)"},
		{"negative breaker threshold", func(s *Spec) { s.BreakerAfter = -2 }, "cluster: BreakerAfter must be >= 0 (got -2)"},
		{"token bucket without rate", func(s *Spec) { s.Admission = AdmitTokenBucket }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := smallSpec()
			tc.mut(&spec)
			_, err := Run(spec)
			if err == nil {
				t.Fatal("bad spec accepted")
			}
			if tc.want == "" {
				return
			}
			if !errors.Is(err, ErrInvalidSpec) {
				t.Errorf("error does not wrap ErrInvalidSpec: %v", err)
			}
			if !strings.HasPrefix(err.Error(), tc.want) {
				t.Errorf("error %q, want prefix %q", err, tc.want)
			}
		})
	}
}

// The size limits admit a spec at each limit and reject one past it
// with ErrInvalidSpec. Specs at the limits are only validated: running
// them is the memory cost the limits exist to cap.
func TestSpecLimits(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string // "" = valid
	}{
		{"instances at limit", func(s *Spec) { s.Instances, s.Sessions = MaxInstances, 64 }, ""},
		{"instances past limit", func(s *Spec) { s.Instances, s.Sessions = MaxInstances+1, 1 }, "cluster: Instances must be in [1, 1024] (got 1025)"},
		{"sessions at limit", func(s *Spec) { s.Instances, s.Sessions = 4, MaxSessions }, ""},
		{"sessions past limit", func(s *Spec) { s.Instances, s.Sessions = 1, MaxSessions+1 }, "cluster: Sessions must be in [1, 16384] (got 16385)"},
		{"fleet at limit", func(s *Spec) { s.Instances, s.Sessions = 256, 256 }, ""},
		{"fleet past limit", func(s *Spec) { s.Instances, s.Sessions = 257, 256 }, "cluster: Instances x Sessions must be <= 65536 (got 65792)"},
		{"requests at limit", func(s *Spec) { s.Requests = MaxRequests }, ""},
		{"requests past limit", func(s *Spec) { s.Requests = MaxRequests + 1 }, "cluster: Requests must be in [1, 1000000] (got 1000001)"},
		{"users at limit", func(s *Spec) { s.Users = MaxUsers }, ""},
		{"users past limit", func(s *Spec) { s.Users = MaxUsers + 1 }, "cluster: Users must be <= 1048576 (got 1048577)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := smallSpec()
			tc.mut(&spec)
			err := spec.withDefaults().validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("spec at the limit rejected: %v", err)
			case tc.want == "":
			case err == nil:
				t.Fatal("spec past the limit accepted")
			case !errors.Is(err, ErrInvalidSpec):
				t.Errorf("error does not wrap ErrInvalidSpec: %v", err)
			case !strings.HasPrefix(err.Error(), tc.want):
				t.Errorf("error %q, want prefix %q", err, tc.want)
			}
		})
	}
}

// A Cluster refuses to run twice: its worlds are consumed.
func TestRunTwice(t *testing.T) {
	c, err := New(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err == nil {
		t.Fatal("second Run succeeded")
	}
}

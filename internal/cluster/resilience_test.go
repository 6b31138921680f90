package cluster

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/vclock"
)

// dur is shorthand for plan-relative times in these tests.
func dur(d vclock.Duration) fault.Dur { return fault.Dur{Duration: d} }

// faultedSpec is the shared resilient scenario: a 4-instance fleet with
// Start pinned so the fault windows provably overlap the ~100ms arrival
// window, one crash-with-restart, one stall, one brownout, and the full
// client policy stack switched on.
func faultedSpec() Spec {
	return Spec{
		Instances: 4,
		Sessions:  16,
		Seed:      7,
		Requests:  2000,
		Rate:      20_000,
		Service:   20 * vclock.Microsecond,
		Start:     200 * vclock.Millisecond,
		Faults: &fault.Plan{
			CrashInstance:   []fault.CrashInstance{{Instance: 1, At: dur(220 * vclock.Millisecond), Restart: dur(30 * vclock.Millisecond)}},
			StallInstance:   []fault.StallInstance{{Instance: 2, From: dur(240 * vclock.Millisecond), Until: dur(255 * vclock.Millisecond)}},
			DegradeInstance: []fault.DegradeInstance{{Instance: 0, Factor: 6, From: dur(260 * vclock.Millisecond), Until: dur(280 * vclock.Millisecond)}},
		},
		ProbeEvery:   2 * vclock.Millisecond,
		Timeout:      10 * vclock.Millisecond,
		Retries:      2,
		RetryBackoff: 500 * vclock.Microsecond,
		RetryBudget:  0.5,
		HedgeAfter:   5 * vclock.Millisecond,
		BreakerAfter: 5,
		DegradedOver: 50 * vclock.Millisecond,
	}
}

func checkInvariant(t *testing.T, s *Summary, label string) {
	t.Helper()
	if got := s.Rejected + s.Shed + s.Failed + s.Degraded + s.Goodput; got != s.Offered {
		t.Errorf("%s: bucket identity broken: rejected %d + shed %d + failed %d + degraded %d + goodput %d = %d, offered %d",
			label, s.Rejected, s.Shed, s.Failed, s.Degraded, s.Goodput, got, s.Offered)
	}
	if s.Completed != s.Goodput+s.Degraded {
		t.Errorf("%s: completed %d != goodput %d + degraded %d", label, s.Completed, s.Goodput, s.Degraded)
	}
	if s.Offered != s.Admitted+s.Rejected {
		t.Errorf("%s: offered %d != admitted %d + rejected %d", label, s.Offered, s.Admitted, s.Rejected)
	}
}

// TestResilientShardDeterminism is the load-bearing test of the PR: the
// full fault + policy stack, under every router, must produce
// byte-identical summaries at any shard count and across reruns.
func TestResilientShardDeterminism(t *testing.T) {
	shards := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, router := range []string{RouteRoundRobin, RouteLeastLoaded, RouteAffinity} {
		var base string
		for _, sh := range shards {
			spec := faultedSpec()
			spec.Router = router
			spec.Shards = sh
			got := marshal(t, mustRun(t, spec))
			if base == "" {
				base = got
				// Rerun at the same shard count: same bytes again.
				if again := marshal(t, mustRun(t, spec)); again != base {
					t.Errorf("%s: rerun diverged at shards=%d", router, sh)
				}
				continue
			}
			if got != base {
				t.Errorf("%s: shards=%d diverged from shards=%d\n%s\nvs\n%s", router, sh, shards[0], got, base)
			}
		}
	}
}

// TestResilientInvariantEveryPreset pins the accounting identity for
// every world preset under the faulted scenario.
func TestResilientInvariantEveryPreset(t *testing.T) {
	for _, preset := range []string{"w1-echo", "cedar", "gvx"} {
		spec := faultedSpec()
		spec.Preset = preset
		spec.Requests = 400 // cedar/gvx carry background load; keep it quick
		s := mustRun(t, spec)
		checkInvariant(t, s, preset)
		if s.Resilience == nil {
			t.Fatalf("%s: resilient run returned no ResilienceSummary", preset)
		}
		if s.Goodput == 0 {
			t.Errorf("%s: zero goodput under a partial fault", preset)
		}
	}
}

// TestResilientMechanismsFire checks that the faulted scenario actually
// exercises every mechanism it claims to: ejection and re-admission
// with a recovery time, retries, timeouts, and faulted-phase samples.
func TestResilientMechanismsFire(t *testing.T) {
	s := mustRun(t, faultedSpec())
	r := s.Resilience
	if r.Ejections == 0 || r.Readmissions == 0 {
		t.Errorf("health monitor never cycled: ejections %d readmissions %d", r.Ejections, r.Readmissions)
	}
	if r.RecoveryUs <= 0 {
		t.Errorf("no recovery time recorded (got %dus)", r.RecoveryUs)
	}
	if r.Retries == 0 {
		t.Errorf("no retries under a crash+stall scenario")
	}
	if r.Refused+r.Lost+r.Timeouts == 0 {
		t.Errorf("no attempt-level failures recorded: %+v", r)
	}
	phases := map[string]bool{}
	for _, p := range r.Phases {
		phases[p.Phase] = true
	}
	for _, want := range []string{"healthy", "faulted"} {
		if !phases[want] {
			t.Errorf("missing %q phase latency slice (got %v)", want, r.Phases)
		}
	}
	checkInvariant(t, s, "faulted")
}

// TestAffinityRehoming extends the shard-determinism story to the
// failure case the ISSUE names: when an affinity-pinned instance is
// ejected, its sessions re-home to the next healthy instance in ring
// order, deterministically — and come back after recovery.
func TestAffinityRehoming(t *testing.T) {
	spec := faultedSpec()
	spec.Router = RouteAffinity
	faulted := mustRun(t, spec)

	baseline := faultedSpec()
	baseline.Router = RouteAffinity
	baseline.Faults = nil
	// Keep the resilient path (same driver, same draw order) but no
	// faults: only the fault plan differs between the two runs.
	base := mustRun(t, baseline)

	// Instance 1 crashes mid-window: pinned traffic must have shifted
	// off it relative to the fault-free run...
	if faulted.PerInstance[1].Completed >= base.PerInstance[1].Completed {
		t.Errorf("crashed home completed %d >= fault-free %d; no re-homing visible",
			faulted.PerInstance[1].Completed, base.PerInstance[1].Completed)
	}
	// ...while the fleet as a whole kept serving: far more than the
	// crashed instance's traffic survived.
	served := faulted.Goodput + faulted.Degraded
	if served < base.Completed*8/10 {
		t.Errorf("fleet served only %d of %d under failover", served, base.Completed)
	}
	checkInvariant(t, faulted, "affinity-faulted")
	checkInvariant(t, base, "affinity-baseline")
}

// TestLegacyPathAccounting pins the buckets of a run whose requests
// carry no client state: goodput is completed, nothing is shed or
// degraded, and no ResilienceSummary appears (so existing JSON output
// only grows fields, never changes meaning).
func TestLegacyPathAccounting(t *testing.T) {
	s := mustRun(t, smallSpec())
	if s.Resilience != nil {
		t.Fatalf("legacy run grew a ResilienceSummary")
	}
	if s.Goodput != s.Completed || s.Shed != 0 || s.Degraded != 0 {
		t.Errorf("legacy buckets wrong: goodput %d completed %d shed %d degraded %d",
			s.Goodput, s.Completed, s.Shed, s.Degraded)
	}
	checkInvariant(t, s, "legacy")
}

// TestRetryBudgetSuppression: same overloaded crash scenario with and
// without a budget. The budget must deny retries, and issue strictly
// fewer than the unmetered run.
func TestRetryBudgetSuppression(t *testing.T) {
	mk := func(budget float64) Spec {
		spec := faultedSpec()
		// One instance dies for good, and nothing else protects the
		// fleet: no health ejection, no breaker, no hedging. Every rr
		// dispatch to the corpse refuses and turns into a retry — the
		// storm the budget exists to meter.
		spec.Faults = &fault.Plan{
			CrashInstance: []fault.CrashInstance{{Instance: 1, At: dur(220 * vclock.Millisecond)}},
		}
		spec.ProbeEvery = 0
		spec.BreakerAfter = 0
		spec.HedgeAfter = 0
		spec.Retries = 3
		spec.RetryBudget = budget
		return spec
	}
	unmetered := mustRun(t, mk(0)).Resilience
	metered := mustRun(t, mk(0.05)).Resilience
	if metered.RetriesDenied == 0 {
		t.Errorf("5%% budget denied nothing (issued %d)", metered.Retries)
	}
	if metered.Retries >= unmetered.Retries {
		t.Errorf("budgeted run issued %d retries, unmetered %d — no suppression", metered.Retries, unmetered.Retries)
	}
}

// TestHedgingShavesTail: a brownout on one instance with hedging on
// should win some hedges; the same scenario without hedging must show a
// worse pinned p99 for requests born in the faulted phase.
func TestHedgingShavesTail(t *testing.T) {
	mk := func(hedge vclock.Duration) Spec {
		spec := faultedSpec()
		spec.Faults = &fault.Plan{
			DegradeInstance: []fault.DegradeInstance{{Instance: 0, Factor: 400, From: dur(210 * vclock.Millisecond), Until: dur(290 * vclock.Millisecond)}},
		}
		spec.Timeout = 0
		spec.Retries = 0
		spec.BreakerAfter = 0
		spec.HedgeAfter = hedge
		return spec
	}
	faultedP99 := func(s *Summary) int64 {
		for _, p := range s.Resilience.Phases {
			if p.Phase == "faulted" {
				return p.P99Us
			}
		}
		t.Fatalf("no faulted phase in %+v", s.Resilience.Phases)
		return 0
	}
	hedged := mustRun(t, mk(2*vclock.Millisecond))
	bare := mustRun(t, mk(0))
	if hedged.Resilience.Hedges == 0 || hedged.Resilience.HedgeWins == 0 {
		t.Fatalf("hedging never fired/won: %+v", hedged.Resilience)
	}
	if hp, bp := faultedP99(hedged), faultedP99(bare); hp >= bp {
		t.Errorf("hedged faulted-phase p99 %dus >= unhedged %dus", hp, bp)
	}
	checkInvariant(t, hedged, "hedged")
}

// TestBreakerStateMachine drives the breaker directly through its
// closed → open → half-open → closed/open cycle.
func TestBreakerStateMachine(t *testing.T) {
	b := breaker{after: 3, openFor: 10 * vclock.Millisecond}
	t0 := vclock.Time(0).Add(vclock.Second)
	for i := 0; i < 3; i++ {
		if !b.allow(t0) {
			t.Fatalf("closed breaker refused dispatch %d", i)
		}
		b.onFailure(t0)
	}
	if b.state != bkOpen || b.opens != 1 {
		t.Fatalf("not open after 3 failures: state %v opens %d", b.state, b.opens)
	}
	if b.allow(t0.Add(vclock.Millisecond)) {
		t.Fatalf("open breaker allowed a dispatch inside openFor")
	}
	if b.fastFails != 1 {
		t.Fatalf("fast-fail not counted: %d", b.fastFails)
	}
	th := t0.Add(11 * vclock.Millisecond)
	if !b.allow(th) || b.state != bkHalfOpen {
		t.Fatalf("breaker did not half-open after openFor")
	}
	if b.allow(th) {
		t.Fatalf("half-open admitted a second concurrent trial")
	}
	b.onFailure(th)
	if b.state != bkOpen || b.opens != 2 {
		t.Fatalf("failed trial did not re-open: state %v opens %d", b.state, b.opens)
	}
	th2 := th.Add(11 * vclock.Millisecond)
	if !b.allow(th2) {
		t.Fatalf("no trial after second openFor")
	}
	b.onSuccess()
	if b.state != bkClosed || !b.allow(th2) {
		t.Fatalf("successful trial did not close the breaker")
	}
	// An abandoned trial must release the slot, not wedge the breaker.
	b.onFailure(th2)
	b.onFailure(th2)
	b.onFailure(th2)
	th3 := th2.Add(11 * vclock.Millisecond)
	if !b.allow(th3) {
		t.Fatalf("no trial after reopen")
	}
	b.abandon()
	if !b.allow(th3) {
		t.Fatalf("abandoned trial slot not released")
	}
	// Disabled breaker is transparent.
	off := breaker{}
	off.onFailure(t0)
	off.onFailure(t0)
	if !off.allow(t0) || off.opens != 0 {
		t.Fatalf("disabled breaker interfered")
	}
}

// TestHealthMonitorThresholds drives the monitor through an eject /
// readmit cycle and checks the consecutive-threshold hysteresis and the
// recovery clock.
func TestHealthMonitorThresholds(t *testing.T) {
	m := newHealthMonitor(2)
	tick := vclock.Time(0).Add(vclock.Second)
	step := func(alive0 bool) {
		m.probe(tick, func(i int) bool {
			if i == 0 {
				return alive0
			}
			return true
		})
		tick = tick.Add(vclock.Millisecond)
	}
	step(false)
	step(false)
	if !m.isHealthy(0) {
		t.Fatalf("ejected before failAfter consecutive failures")
	}
	step(false)
	if m.isHealthy(0) || m.ejections != 1 {
		t.Fatalf("not ejected after 3 consecutive failures")
	}
	step(true)
	if m.isHealthy(0) {
		t.Fatalf("readmitted before recoverAfter consecutive successes")
	}
	step(true)
	if !m.isHealthy(0) || m.readmissions != 1 {
		t.Fatalf("not readmitted after 2 consecutive successes")
	}
	if m.ttrMax != 2*vclock.Millisecond {
		t.Fatalf("recovery time = %v, want 2ms", m.ttrMax)
	}
	if m.healthyCount() != 2 {
		t.Fatalf("healthyCount = %d", m.healthyCount())
	}
	var nilMon *healthMonitor
	if !nilMon.isHealthy(3) {
		t.Fatalf("nil monitor must be transparent")
	}
}

// TestCompileFaultsScope pins compilation errors and the seeded
// AnyInstance resolution.
func TestCompileFaultsScope(t *testing.T) {
	if _, err := compileFaults(&fault.Plan{LostNotify: []fault.LostNotify{{CV: "x"}}}, 2, 1); err == nil ||
		!strings.Contains(err.Error(), "thread-scoped") {
		t.Errorf("thread-scoped plan accepted by cluster compile: %v", err)
	}
	if _, err := compileFaults(&fault.Plan{CrashInstance: []fault.CrashInstance{{Instance: 5, At: dur(0)}}}, 4, 1); err == nil ||
		!strings.Contains(err.Error(), "instance 5") {
		t.Errorf("out-of-range instance accepted: %v", err)
	}
	// AnyInstance picks are a pure function of the seed.
	plan := &fault.Plan{CrashInstance: []fault.CrashInstance{
		{Instance: fault.AnyInstance, At: dur(vclock.Second)},
		{Instance: fault.AnyInstance, At: dur(2 * vclock.Second)},
	}}
	pickOf := func(seed int64) []int {
		f, err := compileFaults(plan, 8, seed)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for i := range f.inst {
			for range f.inst[i].crashes {
				got = append(got, i)
			}
		}
		return got
	}
	a, b := pickOf(42), pickOf(42)
	if len(a) != 2 || len(b) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Errorf("AnyInstance picks not deterministic: %v vs %v", a, b)
	}
	// Phase classification around the span.
	f, err := compileFaults(plan, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if f.phaseIdx(vclock.Time(0).Add(vclock.Millisecond)) != 0 {
		t.Errorf("pre-span time not healthy")
	}
	if f.phaseIdx(vclock.Time(0).Add(vclock.Second)) != 1 {
		t.Errorf("in-span time not faulted (crash without restart keeps the span open)")
	}
	empty, _ := compileFaults(nil, 4, 0)
	if !empty.empty() || empty.phaseIdx(vclock.Time(0).Add(3600*vclock.Second)) != 0 {
		t.Errorf("nil plan compiled non-empty or non-healthy")
	}
}

// TestResilientSpecValidation checks that a thread-scoped fault plan
// fails at New, not at Run. TestSpecValidation covers the resilience
// knobs.
func TestResilientSpecValidation(t *testing.T) {
	spec := smallSpec()
	spec.Faults = &fault.Plan{CrashThread: []fault.CrashThread{{Thread: "x", At: dur(vclock.Second)}}}
	if _, err := New(spec); err == nil || !strings.Contains(err.Error(), "thread-scoped") {
		t.Errorf("thread-scoped plan at New: err = %v", err)
	}
}

// TestResilienceSummaryJSONStable pins the new summary fields' JSON
// names — they are part of the -json output schema.
func TestResilienceSummaryJSONStable(t *testing.T) {
	s := mustRun(t, faultedSpec())
	raw := marshal(t, s)
	var m map[string]any
	if err := json.Unmarshal([]byte(raw), &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"goodput", "degraded", "shed", "failed", "resilience"} {
		if _, ok := m[key]; !ok {
			t.Errorf("summary JSON missing %q", key)
		}
	}
	res := m["resilience"].(map[string]any)
	for _, key := range []string{"timeouts", "retries", "retries_denied", "hedges", "hedge_wins",
		"refused", "lost", "breaker_opens", "breaker_fast_fails", "ejections", "readmissions",
		"recovery_us", "phases"} {
		if _, ok := res[key]; !ok {
			t.Errorf("resilience JSON missing %q", key)
		}
	}
}

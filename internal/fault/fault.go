// Package fault is a deterministic, seeded fault-injection layer for the
// sim thread kernel, built to provoke the failure modes §§5.3–5.5 and
// §6.2 of "Using Threads in Interactive Systems: A Case Study" describe
// and measure how well the paper's robustness paradigms recover:
//
//   - LostNotify swallows NOTIFYs on a named CV — the deleted-NOTIFY bug
//     whose timeout-masked aftermath "works, but slowly" (§5.3);
//   - CrashThread panics a thread by name at a virtual time — the
//     uncaught errors that motivated task rejuvenation (§4.5, §5.5);
//   - ForkExhaustion clamps the live-thread bound for a window — the
//     FORK failures for which "good recovery schemes seem never to have
//     been worked out" (§5.4);
//   - StallThread pins a lock holder in a long Compute — the raw
//     material of a stable priority inversion (§6.2);
//   - ClockJitter perturbs Compute durations by a seeded ± fraction,
//     shaking out schedules that only work at one operating point.
//
// A Plan is declarative and JSON-loadable (threadstudy -faults). An
// Injector compiled from a plan hooks a single world at well-defined
// seams (sim.Config.OnNotify/OnFork/OnCompute, sim.World.KillThread,
// sim.World.SetMaxThreads) and is driven entirely by virtual time and
// its own seeded RNG, so a given (plan, seed, world seed) triple always
// injects the identical fault sequence — and a world with no plan runs
// byte-identically to one built before this package existed.
//
// The recovery half of the story is StartWatchdog (a liveness sleeper
// that detects starvation on a progress counter and dumps world state)
// and RetryPolicy (FORK retry over TryFork). Rejuvenation after a
// CrashThread is the §4.5 paradigm itself, paradigm.StartService.
package fault

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"time"

	"repro/internal/vclock"
)

// Dur is a vclock.Duration with friendly JSON: it unmarshals from either
// a Go duration string ("250ms", "2s") or a raw microsecond count, and
// marshals as microseconds.
type Dur struct{ vclock.Duration }

// D wraps a vclock.Duration for building plans in Go.
func D(v vclock.Duration) Dur { return Dur{v} }

// MarshalJSON implements json.Marshaler (microseconds).
func (d Dur) MarshalJSON() ([]byte, error) { return json.Marshal(int64(d.Duration)) }

// UnmarshalJSON implements json.Unmarshaler.
func (d *Dur) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		td, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("fault: bad duration %q (want Go syntax like \"250ms\")", s)
		}
		d.Duration = vclock.Duration(td.Microseconds())
		return nil
	}
	var us int64
	if err := json.Unmarshal(b, &us); err != nil {
		return fmt.Errorf("fault: bad duration %s (want microseconds or a quoted Go duration)", b)
	}
	d.Duration = vclock.Duration(us)
	return nil
}

// Plan is a declarative fault schedule. All times are virtual, measured
// from the world's start (time 0). The zero Plan injects nothing.
//
// Two scopes of fault live side by side. The thread-scoped kinds
// (LostNotify through ClockJitter) are compiled by an Injector against a
// single world. The instance-scoped kinds (CrashInstance, StallInstance,
// DegradeInstance) target whole fleet members and are compiled by the
// cluster layer's own injector (internal/cluster), which owns the
// instance-index namespace; a single-world Injector rejects them so an
// instance fault can never silently no-op against the wrong scope.
type Plan struct {
	LostNotify     []LostNotify     `json:"lost_notify,omitempty"`
	CrashThread    []CrashThread    `json:"crash_thread,omitempty"`
	ForkExhaustion []ForkExhaustion `json:"fork_exhaustion,omitempty"`
	StallThread    []StallThread    `json:"stall_thread,omitempty"`
	ClockJitter    []ClockJitter    `json:"clock_jitter,omitempty"`

	CrashInstance   []CrashInstance   `json:"crash_instance,omitempty"`
	StallInstance   []StallInstance   `json:"stall_instance,omitempty"`
	DegradeInstance []DegradeInstance `json:"degrade_instance,omitempty"`
}

// MaxRules bounds a plan's total rule count over every kind. The
// injector scans its rule lists on every Compute and NOTIFY, so without
// a cap a plan could make a run slow without making it large.
const MaxRules = 256

// rules returns the plan's total rule count over every kind.
func (p Plan) rules() int {
	return len(p.LostNotify) + len(p.CrashThread) + len(p.ForkExhaustion) +
		len(p.StallThread) + len(p.ClockJitter) +
		len(p.CrashInstance) + len(p.StallInstance) + len(p.DegradeInstance)
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool { return p.rules() == 0 }

// HasInstanceFaults reports whether the plan carries any cluster-scoped
// (instance) fault rules.
func (p Plan) HasInstanceFaults() bool {
	return len(p.CrashInstance) > 0 || len(p.StallInstance) > 0 || len(p.DegradeInstance) > 0
}

// HasThreadFaults reports whether the plan carries any single-world
// (thread-scoped) fault rules.
func (p Plan) HasThreadFaults() bool {
	return len(p.LostNotify) > 0 || len(p.CrashThread) > 0 ||
		len(p.ForkExhaustion) > 0 || len(p.StallThread) > 0 || len(p.ClockJitter) > 0
}

// LostNotify swallows NOTIFYs (thread- or driver-context, not BROADCAST)
// on matching condition variables during a window (§5.3).
type LostNotify struct {
	// CV is an anchored-nowhere regexp matched against CV debug names.
	CV string `json:"cv"`
	// From/Until bound the window; a zero Until leaves it open-ended.
	From  Dur `json:"from,omitempty"`
	Until Dur `json:"until,omitempty"`
	// Count caps how many notifies this rule swallows; 0 = unlimited.
	Count int `json:"count,omitempty"`
}

// CrashThread panics the first live thread whose name matches at virtual
// time At, as if its own body had raised an uncaught error (§5.5).
type CrashThread struct {
	Thread string `json:"thread"`
	At     Dur    `json:"at"`
	// WhenBlocked defers the kill until the victim is blocked — a crash
	// in its wait loop — so the error never lands while the victim holds
	// a monitor mid-computation. If no matching thread (ever) blocks the
	// kill is retried every millisecond and eventually abandoned.
	WhenBlocked bool `json:"when_blocked,omitempty"`
}

// ForkExhaustion clamps the world's MaxThreads to Max during the window,
// then restores the previous bound (§5.4).
type ForkExhaustion struct {
	Max   int `json:"max"`
	From  Dur `json:"from"`
	Until Dur `json:"until"`
}

// StallThread extends the first Compute a matching thread issues at or
// after At by Stall — pinning, say, a lock holder in a long computation
// to set up a stable priority inversion (§6.2).
type StallThread struct {
	Thread string `json:"thread"`
	At     Dur    `json:"at"`
	Stall  Dur    `json:"stall"`
	// MinDemand skips computes shorter than this, so the stall lands on
	// a real critical-section computation rather than on lock-cost or
	// other bookkeeping charges the thread issues first.
	MinDemand Dur `json:"min_demand,omitempty"`
}

// ClockJitter scales every Compute demand issued during the window by a
// factor drawn uniformly from [1-Frac, 1+Frac) using the injector's own
// seeded RNG (never the world's, so the workload's randomness is
// untouched).
type ClockJitter struct {
	Frac  float64 `json:"frac"`
	From  Dur     `json:"from,omitempty"`
	Until Dur     `json:"until,omitempty"`
}

// AnyInstance is the CrashInstance/StallInstance/DegradeInstance
// Instance value meaning "let the cluster injector pick a victim with
// its own seeded RNG" — the same instance for a given (plan, seed,
// fleet size) triple, whatever the shard count.
const AnyInstance = -1

// CrashInstance stops a fleet instance from serving at virtual time At:
// its queued requests are lost, in-flight responses are never delivered,
// and new connections are refused. If Restart is nonzero the instance
// comes back Restart later with cold session state (§5.5's uncaught
// error, scaled from one thread to one machine).
type CrashInstance struct {
	// Instance is the fleet index of the victim, or AnyInstance (-1)
	// for a seeded-random pick by the cluster injector.
	Instance int `json:"instance"`
	At       Dur `json:"at"`
	// Restart is the downtime; zero means the instance never returns.
	Restart Dur `json:"restart,omitempty"`
}

// StallInstance freezes a fleet instance's service during [From, Until):
// it keeps admitting requests but completes none until the window ends —
// the paper's §6.2 stall ("the system seemed to stop") writ large, the
// failure mode that poisons a merged SLO without tripping liveness.
type StallInstance struct {
	Instance int `json:"instance"`
	From     Dur `json:"from"`
	Until    Dur `json:"until"`
}

// DegradeInstance multiplies a fleet instance's service time by Factor
// during [From, Until) — a brownout: the instance stays up and passes
// health probes while quietly dragging the tail.
type DegradeInstance struct {
	Instance int     `json:"instance"`
	Factor   float64 `json:"factor"`
	From     Dur     `json:"from"`
	Until    Dur     `json:"until"`
}

// Load reads and parses a JSON fault plan from path.
func Load(path string) (Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, err
	}
	p, err := Parse(data)
	if err != nil {
		return Plan{}, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// Parse decodes and validates a JSON fault plan. Unknown fields are
// rejected so a typo'd injector name fails loudly instead of silently
// injecting nothing.
func Parse(data []byte) (Plan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("%w: %w", ErrInvalidPlan, err)
	}
	if err := p.Check(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// ErrInvalidPlan is wrapped by every error Parse, Load, Check, and New
// return for a malformed or semantically invalid plan, so callers can
// distinguish "the plan is wrong" from I/O failures with errors.Is.
var ErrInvalidPlan = errors.New("fault: invalid plan")

// Check validates the plan: it has at most MaxRules rules, regexps
// compile, windows are ordered, and magnitudes are sane. All errors wrap
// ErrInvalidPlan. New performs the
// same validation.
func (p Plan) Check() error {
	if err := p.check(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidPlan, err)
	}
	return nil
}

func (p Plan) check() error {
	if n := p.rules(); n > MaxRules {
		return fmt.Errorf("%d rules exceed the limit of %d", n, MaxRules)
	}
	window := func(what string, from, until Dur) error {
		if from.Duration < 0 || until.Duration < 0 {
			return fmt.Errorf("%s: negative window bound", what)
		}
		if until.Duration != 0 && until.Duration <= from.Duration {
			return fmt.Errorf("%s: until %s not after from %s", what, until, from)
		}
		return nil
	}
	for i, r := range p.LostNotify {
		what := fmt.Sprintf("lost_notify[%d]", i)
		if _, err := regexp.Compile(r.CV); err != nil {
			return fmt.Errorf("%s: bad cv pattern: %v", what, err)
		}
		if r.Count < 0 {
			return fmt.Errorf("%s: negative count", what)
		}
		if err := window(what, r.From, r.Until); err != nil {
			return err
		}
	}
	for i, r := range p.CrashThread {
		what := fmt.Sprintf("crash_thread[%d]", i)
		if _, err := regexp.Compile(r.Thread); err != nil {
			return fmt.Errorf("%s: bad thread pattern: %v", what, err)
		}
		if r.At.Duration < 0 {
			return fmt.Errorf("%s: negative at", what)
		}
	}
	for i, r := range p.ForkExhaustion {
		what := fmt.Sprintf("fork_exhaustion[%d]", i)
		if r.Max < 1 {
			return fmt.Errorf("%s: max %d must be at least 1", what, r.Max)
		}
		if r.Until.Duration == 0 {
			return fmt.Errorf("%s: until is required (the clamp must end)", what)
		}
		if err := window(what, r.From, r.Until); err != nil {
			return err
		}
	}
	for i, r := range p.StallThread {
		what := fmt.Sprintf("stall_thread[%d]", i)
		if _, err := regexp.Compile(r.Thread); err != nil {
			return fmt.Errorf("%s: bad thread pattern: %v", what, err)
		}
		if r.At.Duration < 0 || r.Stall.Duration <= 0 {
			return fmt.Errorf("%s: need at >= 0 and stall > 0", what)
		}
		if r.MinDemand.Duration < 0 {
			return fmt.Errorf("%s: negative min_demand", what)
		}
	}
	for i, r := range p.ClockJitter {
		what := fmt.Sprintf("clock_jitter[%d]", i)
		if r.Frac <= 0 || r.Frac >= 1 {
			return fmt.Errorf("%s: frac %v must be in (0, 1)", what, r.Frac)
		}
		if err := window(what, r.From, r.Until); err != nil {
			return err
		}
	}
	instance := func(what string, i int) error {
		if i < AnyInstance {
			return fmt.Errorf("%s: instance %d must be >= 0 (or %d for a seeded-random pick)", what, i, AnyInstance)
		}
		return nil
	}
	for i, r := range p.CrashInstance {
		what := fmt.Sprintf("crash_instance[%d]", i)
		if err := instance(what, r.Instance); err != nil {
			return err
		}
		if r.At.Duration < 0 {
			return fmt.Errorf("%s: negative at", what)
		}
		if r.Restart.Duration < 0 {
			return fmt.Errorf("%s: negative restart", what)
		}
	}
	for i, r := range p.StallInstance {
		what := fmt.Sprintf("stall_instance[%d]", i)
		if err := instance(what, r.Instance); err != nil {
			return err
		}
		if r.Until.Duration == 0 {
			return fmt.Errorf("%s: until is required (the stall must end)", what)
		}
		if err := window(what, r.From, r.Until); err != nil {
			return err
		}
	}
	for i, r := range p.DegradeInstance {
		what := fmt.Sprintf("degrade_instance[%d]", i)
		if err := instance(what, r.Instance); err != nil {
			return err
		}
		if r.Factor <= 1 {
			return fmt.Errorf("%s: factor %v must be > 1 (1 is no degradation)", what, r.Factor)
		}
		if r.Until.Duration == 0 {
			return fmt.Errorf("%s: until is required (the brownout must end)", what)
		}
		if err := window(what, r.From, r.Until); err != nil {
			return err
		}
	}
	return nil
}

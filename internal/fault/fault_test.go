package fault

import (
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/monitor"
	"repro/internal/paradigm"
	"repro/internal/sim"
	"repro/internal/vclock"
)

func testConfig() sim.Config {
	return sim.Config{SwitchCost: -1, TimeoutGranularity: vclock.Millisecond}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	src := `{
		"lost_notify": [{"cv": "work", "from": "10ms", "until": "2s", "count": 3}],
		"crash_thread": [{"thread": "^worker$", "at": 20000, "when_blocked": true}],
		"fork_exhaustion": [{"max": 2, "from": "1ms", "until": "5ms"}],
		"stall_thread": [{"thread": "holder", "at": "0s", "stall": "400ms"}],
		"clock_jitter": [{"frac": 0.25}]
	}`
	p, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := p.LostNotify[0].From.Duration; got != 10*vclock.Millisecond {
		t.Errorf("string duration parsed to %v", got)
	}
	if got := p.CrashThread[0].At.Duration; got != 20*vclock.Millisecond {
		t.Errorf("numeric duration parsed to %v, want 20ms in microseconds", got)
	}
	if !p.CrashThread[0].WhenBlocked || p.LostNotify[0].Count != 3 {
		t.Error("field values lost in parse")
	}
	if p.Empty() {
		t.Error("plan reported empty")
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"lost_notfy": []}`)); err == nil {
		t.Fatal("typo'd injector name accepted")
	}
	if _, err := Parse([]byte(`{"lost_notify": [{"cv": "x", "cnt": 1}]}`)); err == nil {
		t.Fatal("typo'd rule field accepted")
	}
}

// TestParseRejectsTrailingData: a plan file holds one document. Data
// after it — a second plan, whose rules would otherwise be silently
// dropped, or garbage — is rejected; trailing whitespace is not.
func TestParseRejectsTrailingData(t *testing.T) {
	for _, doc := range []string{
		`{} {"crash_thread":[{"thread":"x("}]} garbage`,
		`{} {}`,
		`{"lost_notify": [{"cv": "x"}]}]`,
		`{}garbage`,
	} {
		if _, err := Parse([]byte(doc)); !errors.Is(err, ErrInvalidPlan) || !strings.Contains(err.Error(), "data after the plan") {
			t.Errorf("Parse(%s): err = %v, want ErrInvalidPlan (data after the plan)", doc, err)
		}
	}
	if _, err := Parse([]byte("{}\n\t ")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

func TestPlanCheckErrors(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		frag string
	}{
		{"bad cv regexp", Plan{LostNotify: []LostNotify{{CV: "("}}}, "bad cv pattern"},
		{"negative count", Plan{LostNotify: []LostNotify{{CV: "x", Count: -1}}}, "negative count"},
		{"inverted window", Plan{LostNotify: []LostNotify{{CV: "x", From: D(5 * vclock.Millisecond), Until: D(vclock.Millisecond)}}}, "not after"},
		{"bad thread regexp", Plan{CrashThread: []CrashThread{{Thread: "[", At: D(1)}}}, "bad thread pattern"},
		{"fork max zero", Plan{ForkExhaustion: []ForkExhaustion{{Max: 0, From: D(1), Until: D(2)}}}, "at least 1"},
		{"fork clamp forever", Plan{ForkExhaustion: []ForkExhaustion{{Max: 1, From: D(1)}}}, "until is required"},
		{"zero stall", Plan{StallThread: []StallThread{{Thread: "x", Stall: D(0)}}}, "stall > 0"},
		{"frac too big", Plan{ClockJitter: []ClockJitter{{Frac: 1.5}}}, "must be in (0, 1)"},
	}
	for _, tc := range cases {
		err := tc.plan.Check()
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.frag)
		}
	}
	if (Plan{}).Check() != nil {
		t.Error("zero plan rejected")
	}
}

// rulesPlan returns a valid plan of n rules spread over every kind, so
// the limit is seen to count the total, not any one kind.
func rulesPlan(n int) Plan {
	var p Plan
	for i := 0; i < n; i++ {
		at := D(vclock.Duration(i+1) * vclock.Millisecond)
		until := D(vclock.Duration(i+2) * vclock.Millisecond)
		switch i % 8 {
		case 0:
			p.LostNotify = append(p.LostNotify, LostNotify{CV: "x"})
		case 1:
			p.CrashThread = append(p.CrashThread, CrashThread{Thread: "x", At: at})
		case 2:
			p.ForkExhaustion = append(p.ForkExhaustion, ForkExhaustion{Max: 1, From: at, Until: until})
		case 3:
			p.StallThread = append(p.StallThread, StallThread{Thread: "x", At: at, Stall: at})
		case 4:
			p.ClockJitter = append(p.ClockJitter, ClockJitter{Frac: 0.1})
		case 5:
			p.CrashInstance = append(p.CrashInstance, CrashInstance{Instance: AnyInstance, At: at})
		case 6:
			p.StallInstance = append(p.StallInstance, StallInstance{Instance: 0, From: at, Until: until})
		case 7:
			p.DegradeInstance = append(p.DegradeInstance, DegradeInstance{Instance: 0, Factor: 2, From: at, Until: until})
		}
	}
	return p
}

func TestPlanRuleLimit(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		frag string // "" = accepted
	}{
		{"mixed kinds at limit", rulesPlan(MaxRules), ""},
		{"mixed kinds past limit", rulesPlan(MaxRules + 1), "257 rules exceed the limit of 256"},
		{"one kind at limit", Plan{LostNotify: make([]LostNotify, MaxRules)}, ""},
		{"one kind past limit", Plan{CrashInstance: make([]CrashInstance, MaxRules+1)}, "exceed the limit"},
	}
	for _, tc := range cases {
		err := tc.plan.Check()
		switch {
		case tc.frag == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.frag != "" && (!errors.Is(err, ErrInvalidPlan) || !strings.Contains(err.Error(), tc.frag)):
			t.Errorf("%s: err = %v, want ErrInvalidPlan mentioning %q", tc.name, err, tc.frag)
		}
	}
}

// runLostNotify runs a waiter (50 ms CV timeout) plus a notifier that
// fires at 10 ms, under the given plan, and reports whether the wait
// timed out and how many notifies the injector swallowed.
func runLostNotify(t *testing.T, plan Plan) (timedOut bool, lost int) {
	t.Helper()
	cfg := testConfig()
	inj := MustNew(plan, 7)
	inj.Configure(&cfg)
	w := sim.NewWorld(cfg)
	defer w.Shutdown()
	inj.Arm(w)
	m := monitor.New(w, "m")
	c := m.NewCondTimeout("work", 50*vclock.Millisecond)
	w.Spawn("waiter", sim.PriorityNormal, func(th *sim.Thread) any {
		m.Enter(th)
		timedOut = c.Wait(th)
		m.Exit(th)
		return nil
	})
	w.Spawn("notifier", sim.PriorityNormal, func(th *sim.Thread) any {
		th.Sleep(10 * vclock.Millisecond)
		m.Enter(th)
		c.Notify(th)
		m.Exit(th)
		return nil
	})
	if out := w.Run(vclock.Time(vclock.Second)); out != sim.OutcomeQuiescent {
		t.Fatalf("outcome = %v", out)
	}
	return timedOut, inj.Counts().NotifiesLost
}

func TestLostNotifySwallowsAndTimeoutMasks(t *testing.T) {
	timedOut, lost := runLostNotify(t, Plan{LostNotify: []LostNotify{{CV: "work", Count: 1}}})
	if !timedOut {
		t.Error("wait completed by NOTIFY despite LostNotify rule")
	}
	if lost != 1 {
		t.Errorf("NotifiesLost = %d, want 1", lost)
	}
	// Control: no plan, the NOTIFY lands.
	timedOut, lost = runLostNotify(t, Plan{})
	if timedOut || lost != 0 {
		t.Errorf("fault-free run: timedOut=%v lost=%d", timedOut, lost)
	}
	// A rule for a different CV must not fire.
	timedOut, lost = runLostNotify(t, Plan{LostNotify: []LostNotify{{CV: "^other$"}}})
	if timedOut || lost != 0 {
		t.Errorf("non-matching rule: timedOut=%v lost=%d", timedOut, lost)
	}
	// A window that opens after the NOTIFY must not fire.
	timedOut, lost = runLostNotify(t, Plan{LostNotify: []LostNotify{{CV: "work", From: D(20 * vclock.Millisecond)}}})
	if timedOut || lost != 0 {
		t.Errorf("late window: timedOut=%v lost=%d", timedOut, lost)
	}
}

func TestLostNotifyFeedsAudit(t *testing.T) {
	cfg := testConfig()
	probe := &sim.Probe{}
	cfg.Hooks.Probe = probe
	inj := MustNew(Plan{LostNotify: []LostNotify{{CV: "work"}}}, 1)
	inj.Configure(&cfg)
	w := sim.NewWorld(cfg)
	defer w.Shutdown()
	inj.Arm(w)
	m := monitor.New(w, "m")
	c := m.NewCondTimeout("work", 10*vclock.Millisecond)
	w.Spawn("waiter", sim.PriorityNormal, func(th *sim.Thread) any {
		for i := 0; i < 3; i++ {
			m.Enter(th)
			c.Wait(th)
			m.Exit(th)
		}
		return nil
	})
	w.Spawn("notifier", sim.PriorityNormal, func(th *sim.Thread) any {
		for i := 0; i < 3; i++ {
			th.Sleep(5 * vclock.Millisecond)
			m.Enter(th)
			c.Notify(th)
			m.Exit(th)
		}
		return nil
	})
	w.Run(vclock.Time(vclock.Second))
	findings := probe.Audit(3)
	if len(findings) != 1 || !strings.Contains(findings[0], `cv "work"`) {
		t.Fatalf("audit findings = %q, want one masked-missing-NOTIFY report", findings)
	}
}

// jitteredSpan runs a fixed compute-loop workload under a jitter plan
// and returns the virtual completion time.
func jitteredSpan(t *testing.T, faultSeed int64) vclock.Time {
	t.Helper()
	cfg := testConfig()
	inj := MustNew(Plan{ClockJitter: []ClockJitter{{Frac: 0.5}}}, faultSeed)
	inj.Configure(&cfg)
	w := sim.NewWorld(cfg)
	defer w.Shutdown()
	inj.Arm(w)
	var done vclock.Time
	w.Spawn("worker", sim.PriorityNormal, func(th *sim.Thread) any {
		for i := 0; i < 20; i++ {
			th.Compute(vclock.Millisecond)
		}
		done = th.Now()
		return nil
	})
	if out := w.Run(vclock.Time(vclock.Second)); out != sim.OutcomeQuiescent {
		t.Fatalf("outcome = %v", out)
	}
	if got := inj.Counts().Jittered; got != 20 {
		t.Fatalf("Jittered = %d, want 20", got)
	}
	return done
}

func TestClockJitterDeterministicPerSeed(t *testing.T) {
	a := jitteredSpan(t, 42)
	b := jitteredSpan(t, 42)
	if a != b {
		t.Fatalf("same fault seed diverged: %v vs %v", a, b)
	}
	if a == vclock.Time(20*vclock.Millisecond) {
		t.Fatal("jitter plan had no effect on the schedule")
	}
	if c := jitteredSpan(t, 43); c == a {
		t.Fatalf("different fault seeds produced identical schedule %v", c)
	}
}

// TestCrashThreadAndRejuvenate: injected crashes kill a §4.5
// rejuvenating service, whose dying incarnation forks its replacement
// (paradigm.StartService), so the service keeps working across them.
func TestCrashThreadAndRejuvenate(t *testing.T) {
	cfg := testConfig()
	plan := Plan{CrashThread: []CrashThread{
		{Thread: "^worker$", At: D(20 * vclock.Millisecond), WhenBlocked: true},
		{Thread: "^worker$", At: D(100 * vclock.Millisecond), WhenBlocked: true},
	}}
	inj := MustNew(plan, 1)
	inj.Configure(&cfg)
	w := sim.NewWorld(cfg)
	defer w.Shutdown()
	inj.Arm(w)
	var ticks int64
	s := paradigm.StartService(w, nil, "worker", sim.PriorityNormal, 5,
		func(th *sim.Thread) {
			for {
				th.Compute(vclock.Millisecond)
				ticks++
				th.BlockIO(4 * vclock.Millisecond)
			}
		}, nil)
	w.Run(vclock.Time(300 * vclock.Millisecond))
	if got := inj.Counts().Crashes; got != 2 {
		t.Fatalf("Crashes = %d, want 2", got)
	}
	if s.Restarts() != 2 {
		t.Fatalf("Restarts = %d, want 2", s.Restarts())
	}
	if !s.Alive() {
		t.Fatal("rejuvenated service not alive")
	}
	if ticks < 30 {
		t.Fatalf("only %d ticks in 300ms: service did not keep working across crashes", ticks)
	}
	if len(s.Deaths()) != 2 {
		t.Fatalf("Deaths = %v, want 2", s.Deaths())
	}
	for _, err := range s.Deaths() {
		var pe *sim.PanicError
		if !errors.As(err, &pe) {
			t.Errorf("death cause %v is not a PanicError", err)
		}
	}
}

func TestWatchdogDetectsAndClears(t *testing.T) {
	w := sim.NewWorld(testConfig())
	defer w.Shutdown()
	var progress int64
	var dumped strings.Builder
	wd := StartWatchdog(w, nil, "watchdog", 10*vclock.Millisecond, 3,
		func() int64 { return progress },
		func(dump func(out io.Writer)) { dump(&dumped) })
	// The worker makes steady progress until 30 ms, starves until 100 ms,
	// then resumes.
	w.Spawn("worker", sim.PriorityNormal, func(th *sim.Thread) any {
		for th.Now() < vclock.Time(30*vclock.Millisecond) {
			th.Compute(vclock.Millisecond)
			progress++
			th.BlockIO(4 * vclock.Millisecond)
		}
		th.BlockIO(70 * vclock.Millisecond)
		for th.Now() < vclock.Time(200*vclock.Millisecond) {
			th.Compute(vclock.Millisecond)
			progress++
			th.BlockIO(4 * vclock.Millisecond)
		}
		return nil
	})
	w.Run(vclock.Time(200 * vclock.Millisecond))
	if wd.Detections() != 1 {
		t.Fatalf("Detections = %d, want 1", wd.Detections())
	}
	det := wd.DetectTimes()[0]
	// Progress stops at ~30 ms; three stale 10 ms periods should declare
	// starvation well before the worker resumes at 100 ms.
	if det <= vclock.Time(30*vclock.Millisecond) || det >= vclock.Time(100*vclock.Millisecond) {
		t.Errorf("detected at %v, want inside the starved window (30ms, 100ms)", det)
	}
	if !strings.Contains(dumped.String(), "worker") {
		t.Errorf("onStarve dump missing thread table:\n%s", dumped.String())
	}
	if len(wd.ClearTimes()) != 1 {
		t.Fatalf("ClearTimes = %v, want one cleared episode", wd.ClearTimes())
	}
	if clr := wd.ClearTimes()[0]; clr <= vclock.Time(100*vclock.Millisecond) {
		t.Errorf("cleared at %v, before progress resumed", clr)
	}
	if wd.Starving() {
		t.Error("watchdog still reports starvation after progress resumed")
	}
	wd.Stop()
}

func TestRetryPolicyForkRecovers(t *testing.T) {
	cfg := testConfig()
	cfg.MaxThreads = 2
	w := sim.NewWorld(cfg)
	defer w.Shutdown()
	var retries int
	var forkErr error
	w.Spawn("parent", sim.PriorityNormal, func(th *sim.Thread) any {
		// Fill the only free slot with a child that exits at 30 ms.
		c1, err := th.TryFork("hog", func(c *sim.Thread) any {
			c.BlockIO(30 * vclock.Millisecond)
			return nil
		})
		if err != nil {
			t.Errorf("first TryFork: %v", err)
			return nil
		}
		p := RetryPolicy{Tries: 8, Backoff: 5 * vclock.Millisecond}
		var c2 *sim.Thread
		c2, retries, forkErr = p.Fork(th, "wanted", func(c *sim.Thread) any { return nil })
		if forkErr == nil {
			th.Join(c2)
		}
		th.Join(c1)
		return nil
	})
	if out := w.Run(vclock.Time(vclock.Second)); out != sim.OutcomeQuiescent {
		t.Fatalf("outcome = %v", out)
	}
	if forkErr != nil {
		t.Fatalf("policy fork failed: %v (after %d retries)", forkErr, retries)
	}
	if retries == 0 {
		t.Fatal("fork succeeded without retrying despite a full thread table")
	}
}

func TestRetryPolicyForkGivesUp(t *testing.T) {
	cfg := testConfig()
	cfg.MaxThreads = 2
	w := sim.NewWorld(cfg)
	defer w.Shutdown()
	var retries int
	var forkErr error
	w.Spawn("parent", sim.PriorityNormal, func(th *sim.Thread) any {
		c1, err := th.TryFork("hog", func(c *sim.Thread) any {
			c.BlockIO(10 * vclock.Second) // outlasts every attempt
			return nil
		})
		if err != nil {
			t.Errorf("first TryFork: %v", err)
			return nil
		}
		p := RetryPolicy{Tries: 3, Backoff: vclock.Millisecond}
		_, retries, forkErr = p.Fork(th, "wanted", func(c *sim.Thread) any { return nil })
		th.Join(c1)
		return nil
	})
	w.Run(vclock.Time(20 * vclock.Second))
	if !errors.Is(forkErr, sim.ErrNoThreads) {
		t.Fatalf("err = %v, want ErrNoThreads", forkErr)
	}
	if retries != 2 {
		t.Fatalf("retries = %d, want 2 (3 tries total)", retries)
	}
}

func TestForkExhaustionClampsAndRestores(t *testing.T) {
	cfg := testConfig()
	cfg.MaxThreads = 8
	plan := Plan{ForkExhaustion: []ForkExhaustion{{
		Max: 1, From: D(10 * vclock.Millisecond), Until: D(50 * vclock.Millisecond),
	}}}
	inj := MustNew(plan, 1)
	inj.Configure(&cfg)
	w := sim.NewWorld(cfg)
	defer w.Shutdown()
	inj.Arm(w)
	var during, after error
	w.Spawn("parent", sim.PriorityNormal, func(th *sim.Thread) any {
		th.BlockIO(20 * vclock.Millisecond) // inside the clamp window
		_, during = th.TryFork("d", func(c *sim.Thread) any { return nil })
		th.BlockIO(40 * vclock.Millisecond) // past the window
		c, e := th.TryFork("a", func(c *sim.Thread) any { return nil })
		after = e
		if e == nil {
			th.Join(c)
		}
		return nil
	})
	if out := w.Run(vclock.Time(vclock.Second)); out != sim.OutcomeQuiescent {
		t.Fatalf("outcome = %v", out)
	}
	if !errors.Is(during, sim.ErrNoThreads) {
		t.Fatalf("TryFork inside clamp window: err = %v, want ErrNoThreads", during)
	}
	if after != nil {
		t.Fatalf("TryFork after clamp window failed: %v", after)
	}
	if got := w.Config().MaxThreads; got != 8 {
		t.Fatalf("MaxThreads = %d after window, want restored 8", got)
	}
	if inj.Counts().Forks == 0 {
		t.Fatal("OnFork hook recorded no thread creations")
	}
}

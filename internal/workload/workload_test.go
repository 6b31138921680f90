package workload

import (
	"testing"

	"repro/internal/paradigm"
	"repro/internal/vclock"
)

// testRC returns a short deterministic run configuration.
func testRC() RunConfig {
	rc := DefaultRunConfig()
	rc.Window = 10 * vclock.Second
	return rc
}

func measureBench(t *testing.T, system, name string) *Result {
	t.Helper()
	b, err := FindBenchmark(system, name)
	if err != nil {
		t.Fatal(err)
	}
	return Run(b, testRC())
}

// within asserts measured is within factor f of target (f >= 1).
func within(t *testing.T, what string, measured, target, f float64) {
	t.Helper()
	if target == 0 {
		if measured != 0 {
			t.Errorf("%s = %v, want 0", what, measured)
		}
		return
	}
	if measured < target/f || measured > target*f {
		t.Errorf("%s = %.1f, want within %.1fx of %.1f", what, measured, f, target)
	}
}

func TestIdleCedarShape(t *testing.T) {
	r := measureBench(t, "Cedar", "Idle Cedar")
	a := r.Analysis
	within(t, "forks/s", a.ForksPerSec(), 0.9, 2)
	within(t, "switches/s", a.SwitchesPerSec(), 132, 1.5)
	within(t, "waits/s", a.WaitsPerSec(), 121, 1.5)
	within(t, "ml-enters/s", a.MLEntersPerSec(), 414, 1.6)
	if a.TimeoutFraction() < 0.7 || a.TimeoutFraction() > 0.95 {
		t.Errorf("timeout fraction = %v, want ~0.82 (timeout-dominated idle)", a.TimeoutFraction())
	}
	if a.DistinctCVs < 15 || a.DistinctCVs > 35 {
		t.Errorf("distinct CVs = %d, want ~22", a.DistinctCVs)
	}
	if a.DistinctMLs < 400 || a.DistinctMLs > 700 {
		t.Errorf("distinct MLs = %d, want ~554", a.DistinctMLs)
	}
	// §3: max concurrent threads never exceeded 41 in the benchmarks.
	if a.MaxLive > 50 {
		t.Errorf("max live threads = %d, want <= ~41", a.MaxLive)
	}
	// Contention is very low in Cedar (0.01%-0.1%).
	if a.ContentionFraction() > 0.005 {
		t.Errorf("contention = %v, want < 0.5%%", a.ContentionFraction())
	}
}

func TestKeyboardRaisesEverything(t *testing.T) {
	idle := measureBench(t, "Cedar", "Idle Cedar").Analysis
	kb := measureBench(t, "Cedar", "Keyboard input").Analysis
	if kb.ForksPerSec() < 3*idle.ForksPerSec() {
		t.Errorf("keyboard forks %.1f not >> idle %.1f (one fork per keystroke)", kb.ForksPerSec(), idle.ForksPerSec())
	}
	if kb.MLEntersPerSec() < 3*idle.MLEntersPerSec() {
		t.Errorf("keyboard ML %.0f not >> idle %.0f", kb.MLEntersPerSec(), idle.MLEntersPerSec())
	}
	if kb.SwitchesPerSec() <= idle.SwitchesPerSec() {
		t.Error("keyboard should switch more than idle")
	}
	// Typing converts the wait mix from timeout-dominated to notified.
	if kb.TimeoutFraction() >= idle.TimeoutFraction() {
		t.Errorf("keyboard TO%% %.2f should drop below idle %.2f", kb.TimeoutFraction(), idle.TimeoutFraction())
	}
	if kb.DistinctCVs <= idle.DistinctCVs {
		t.Error("keyboard should wake more distinct CVs than idle")
	}
}

func TestMouseForksNothingExtra(t *testing.T) {
	mouse := measureBench(t, "Cedar", "Mouse movement").Analysis
	idle := measureBench(t, "Cedar", "Idle Cedar").Analysis
	// "simply moving the mouse around causes no threads to be forked":
	// fork rate stays at the idle system's level.
	within(t, "mouse forks/s", mouse.ForksPerSec(), idle.ForksPerSec(), 1.5)
	if mouse.MLEntersPerSec() < 1.5*idle.MLEntersPerSec() {
		t.Error("mouse should raise monitor traffic via eternal threads")
	}
}

func TestComputeTasksSuppressForking(t *testing.T) {
	idle := measureBench(t, "Cedar", "Idle Cedar").Analysis
	for _, name := range []string{"Make program", "Compile"} {
		a := measureBench(t, "Cedar", name).Analysis
		// Paper: a factor-3 decrease (0.9 -> 0.3). The short test window
		// is noisy, so assert a clear drop rather than the exact factor.
		if a.ForksPerSec() > 0.7*idle.ForksPerSec() {
			t.Errorf("%s forks %.2f/s, want well below idle %.2f (factor-3 decrease)", name, a.ForksPerSec(), idle.ForksPerSec())
		}
	}
}

func TestFormatterForksTwoGenerations(t *testing.T) {
	a := measureBench(t, "Cedar", "Document formatting").Analysis
	if a.ForksPerSec() < 2 {
		t.Errorf("formatter forks %.1f/s, want ~3.6", a.ForksPerSec())
	}
	// §3: "none of our benchmarks exhibited forking generations greater
	// than 2" — generations are 0 (spawned), 1, 2 but never 3.
	if len(a.ForkGenerations) > 3 {
		t.Errorf("fork generations %v exceed depth 2", a.ForkGenerations)
	}
	if len(a.ForkGenerations) < 3 || a.ForkGenerations[2] == 0 {
		t.Errorf("formatter should fork grandchildren: %v", a.ForkGenerations)
	}
}

func TestCompileVisitsWidestMonitorSet(t *testing.T) {
	compile := measureBench(t, "Cedar", "Compile").Analysis
	others := []string{"Idle Cedar", "Keyboard input", "Make program"}
	for _, name := range others {
		a := measureBench(t, "Cedar", name).Analysis
		if compile.DistinctMLs <= a.DistinctMLs {
			t.Errorf("compile distinct MLs %d should exceed %s's %d", compile.DistinctMLs, name, a.DistinctMLs)
		}
	}
	if compile.DistinctMLs < 2000 {
		t.Errorf("compile distinct MLs = %d, want ~2900", compile.DistinctMLs)
	}
}

func TestGVXIdleShape(t *testing.T) {
	a := measureBench(t, "GVX", "Idle GVX").Analysis
	within(t, "waits/s", a.WaitsPerSec(), 32, 1.5)
	within(t, "ml-enters/s", a.MLEntersPerSec(), 366, 1.5)
	if a.ForksPerSec() != 0 {
		t.Errorf("GVX forks %.2f/s, want 0", a.ForksPerSec())
	}
	if a.TimeoutFraction() < 0.95 {
		t.Errorf("GVX idle TO%% = %v, want ~0.99", a.TimeoutFraction())
	}
	if a.DistinctCVs > 10 {
		t.Errorf("GVX distinct CVs = %d, want ~5 (shared CVs)", a.DistinctCVs)
	}
	if a.DistinctMLs > 80 {
		t.Errorf("GVX distinct MLs = %d, want ~48", a.DistinctMLs)
	}
}

func TestGVXNeverForks(t *testing.T) {
	for _, name := range []string{"Keyboard input", "Mouse movement", "Window scrolling"} {
		a := measureBench(t, "GVX", name).Analysis
		if a.Forks != 0 {
			t.Errorf("GVX %s forked %d times; GVX never forks for UI activity", name, a.Forks)
		}
	}
}

func TestGVXKeyboardGoesNotified(t *testing.T) {
	idle := measureBench(t, "GVX", "Idle GVX").Analysis
	kb := measureBench(t, "GVX", "Keyboard input").Analysis
	if kb.TimeoutFraction() > 0.7 {
		t.Errorf("GVX keyboard TO%% = %v, want to collapse toward ~0.42", kb.TimeoutFraction())
	}
	if kb.MLEntersPerSec() < 2.5*idle.MLEntersPerSec() {
		t.Errorf("GVX keyboard ML %.0f not >> idle %.0f", kb.MLEntersPerSec(), idle.MLEntersPerSec())
	}
}

func TestGVXScrollContention(t *testing.T) {
	scroll := measureBench(t, "GVX", "Window scrolling").Analysis
	idle := measureBench(t, "GVX", "Idle GVX").Analysis
	// §3: GVX contention is "sometimes significantly higher ... than in
	// Cedar, occurring 0.4% of the time when scrolling".
	if scroll.ContentionFraction() <= idle.ContentionFraction() {
		t.Errorf("scroll contention %v should exceed idle %v", scroll.ContentionFraction(), idle.ContentionFraction())
	}
	if scroll.ContentionFraction() < 0.0005 {
		t.Errorf("scroll contention %v too low to be visible (want ~0.4%%)", scroll.ContentionFraction())
	}
	cedarScroll := measureBench(t, "Cedar", "Window scrolling").Analysis
	if scroll.ContentionFraction() <= cedarScroll.ContentionFraction() {
		t.Errorf("GVX scroll contention %v should exceed Cedar's %v", scroll.ContentionFraction(), cedarScroll.ContentionFraction())
	}
}

func TestCedarVsGVXContrast(t *testing.T) {
	cedar := measureBench(t, "Cedar", "Idle Cedar").Analysis
	gvx := measureBench(t, "GVX", "Idle GVX").Analysis
	if cedar.SwitchesPerSec() < 2*gvx.SwitchesPerSec() {
		t.Errorf("Cedar switches %.0f should be several times GVX's %.0f", cedar.SwitchesPerSec(), gvx.SwitchesPerSec())
	}
	if cedar.WaitsPerSec() < 2*gvx.WaitsPerSec() {
		t.Errorf("Cedar waits %.0f should be several times GVX's %.0f", cedar.WaitsPerSec(), gvx.WaitsPerSec())
	}
	if cedar.DistinctMLs < 5*gvx.DistinctMLs {
		t.Errorf("Cedar monitor population %d should dwarf GVX's %d", cedar.DistinctMLs, gvx.DistinctMLs)
	}
}

func TestPriorityLevelUsage(t *testing.T) {
	cedar := measureBench(t, "Cedar", "Keyboard input").Analysis
	// Cedar: level 5 unused, level 7 = Notifier (interrupt handling).
	if cedar.ExecByPriority[5] != 0 {
		t.Errorf("Cedar priority 5 consumed %v, want 0 (unused level)", cedar.ExecByPriority[5])
	}
	if cedar.ExecByPriority[7] == 0 {
		t.Error("Cedar priority 7 (Notifier) consumed nothing")
	}
	gvx := measureBench(t, "GVX", "Keyboard input").Analysis
	// GVX: the opposite — 7 unused, 5 = Notifier; bulk of time at 3.
	if gvx.ExecByPriority[7] != 0 {
		t.Errorf("GVX priority 7 consumed %v, want 0", gvx.ExecByPriority[7])
	}
	if gvx.ExecByPriority[5] == 0 {
		t.Error("GVX priority 5 (Notifier) consumed nothing")
	}
	if gvx.CPUShareOfPriority(3) < 0.3 {
		t.Errorf("GVX priority 3 share = %v, want dominant", gvx.CPUShareOfPriority(3))
	}
}

func TestExecutionIntervalDistribution(t *testing.T) {
	a := measureBench(t, "Cedar", "Idle Cedar").Analysis
	short := a.Intervals.FractionCount(0, 5*vclock.Millisecond)
	if short < 0.5 {
		t.Errorf("fraction of intervals in 0-5ms = %v, want majority (~75%%)", short)
	}
	// "Between 20% and 50% of the total execution time ... is
	// accumulated by threads running for periods of 45 to 50 ms."
	// Our quantum-length intervals land just above 50 ms because the
	// context-switch cost is charged inside the interval, so we measure
	// the 45-55 ms band around the quantum.
	long := a.Intervals.FractionTotal(45*vclock.Millisecond, 55*vclock.Millisecond)
	if long < 0.1 || long > 0.7 {
		t.Errorf("execution-time share of quantum-length intervals = %v, want ~0.2-0.5", long)
	}
}

func TestDeterministicRuns(t *testing.T) {
	b, err := FindBenchmark("Cedar", "Keyboard input")
	if err != nil {
		t.Fatal(err)
	}
	rc := testRC()
	a1 := Run(b, rc).Analysis
	a2 := Run(b, rc).Analysis
	if a1.Switches != a2.Switches || a1.MLEnters != a2.MLEnters || a1.Waits != a2.Waits {
		t.Errorf("identical seeds diverged: %+v vs %+v", a1.Switches, a2.Switches)
	}
	rc.Seed = 99
	a3 := Run(b, rc).Analysis
	if a3.MLEnters == a1.MLEnters && a3.Switches == a1.Switches && a3.Forks == a1.Forks {
		t.Error("different seeds produced identical counts (suspicious)")
	}
}

func TestParadigmCensusPopulated(t *testing.T) {
	r := measureBench(t, "Cedar", "Keyboard input")
	reg := r.Registry
	for _, k := range []paradigm.Kind{
		paradigm.KindDeferWork, paradigm.KindGeneralPump, paradigm.KindSleeper,
		paradigm.KindSerializer, paradigm.KindTaskRejuvenate, paradigm.KindOneShot,
		paradigm.KindEncapsulatedFork,
	} {
		if reg.Count(k) == 0 {
			t.Errorf("paradigm %v not represented in the Cedar world", k)
		}
	}
	// Defer work should be the most common category, as in Table 4.
	if reg.Count(paradigm.KindDeferWork) <= reg.Count(paradigm.KindSerializer) {
		t.Errorf("defer work (%d) should dominate serializers (%d)",
			reg.Count(paradigm.KindDeferWork), reg.Count(paradigm.KindSerializer))
	}
}

func TestFindBenchmark(t *testing.T) {
	if _, err := FindBenchmark("Cedar", "Idle Cedar"); err != nil {
		t.Fatal(err)
	}
	if _, err := FindBenchmark("VMS", "Idle"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
	if len(AllBenchmarks()) != 12 {
		t.Fatalf("AllBenchmarks = %d, want 12", len(AllBenchmarks()))
	}
}

// TestThreadClasses checks §3's dynamic classification on the busiest
// forking benchmark: eternal threads number ~35, transient threads
// dominate the exits, and "the average lifetime for non-eternal threads
// is well under 1 second".
func TestThreadClasses(t *testing.T) {
	a := measureBench(t, "Cedar", "Document formatting").Analysis
	// The formatting world adds its service sleepers to the ~35 idle
	// eternals (the paper: "users employ two to three times this many
	// [41] in everyday work").
	if a.EternalCount < 25 || a.EternalCount > 70 {
		t.Errorf("eternal threads = %d, want ~35-55", a.EternalCount)
	}
	if a.ExitedCount == 0 {
		t.Fatal("no transients exited")
	}
	if a.MeanExitedLifetime >= vclock.Second {
		t.Errorf("mean non-eternal lifetime = %v, want well under 1s", a.MeanExitedLifetime)
	}
	if frac := float64(a.TransientCount) / float64(a.ExitedCount); frac < 0.9 {
		t.Errorf("transient fraction of exits = %.2f, want ~1.0", frac)
	}
}

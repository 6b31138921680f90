package sim

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/vclock"
)

func TestTryForkFailsAtLimit(t *testing.T) {
	cfg := testConfig()
	cfg.MaxThreads = 2
	w := NewWorld(cfg)
	defer w.Shutdown()
	var err1, err2 error
	w.Spawn("parent", PriorityNormal, func(th *Thread) any {
		c1, e := th.TryFork("c1", func(c *Thread) any {
			c.Compute(20 * vclock.Millisecond)
			return nil
		})
		err1 = e
		// Limit reached: old-PCR behavior raises the error instead of
		// waiting (§5.4).
		_, err2 = th.TryFork("c2", func(c *Thread) any { return nil })
		th.Join(c1)
		// After c1 exits, TryFork succeeds again.
		c3, e := th.TryFork("c3", func(c *Thread) any { return nil })
		if e != nil {
			t.Errorf("TryFork after exit failed: %v", e)
		}
		th.Join(c3)
		return nil
	})
	if out := w.Run(vclock.Time(vclock.Second)); out != OutcomeQuiescent {
		t.Fatalf("outcome = %v", out)
	}
	if err1 != nil {
		t.Fatalf("first TryFork failed: %v", err1)
	}
	if !errors.Is(err2, ErrNoThreads) {
		t.Fatalf("second TryFork error = %v, want ErrNoThreads", err2)
	}
}

func TestSetPriorityOfRunnableThread(t *testing.T) {
	w := NewWorld(testConfig())
	defer w.Shutdown()
	var order []string
	slow := w.Spawn("slow", PriorityLow, func(th *Thread) any {
		th.Compute(vclock.Millisecond)
		order = append(order, "slow")
		return nil
	})
	w.Spawn("normal", PriorityNormal, func(th *Thread) any {
		th.Compute(10 * vclock.Millisecond)
		order = append(order, "normal")
		return nil
	})
	// Mid-run, promote the low thread above normal: it should preempt.
	w.At(vclock.Time(2*vclock.Millisecond), func() {
		w.SetPriorityOf(slow, PriorityHigh)
	})
	w.Run(vclock.Time(vclock.Second))
	if !reflect.DeepEqual(order, []string{"slow", "normal"}) {
		t.Fatalf("order = %v, want promoted slow first", order)
	}
	if slow.Priority() != PriorityHigh {
		t.Fatalf("priority = %d", slow.Priority())
	}
}

func TestSetPriorityOfBlockedThread(t *testing.T) {
	w := NewWorld(testConfig())
	defer w.Shutdown()
	th := w.Spawn("sleeper", PriorityLow, func(th *Thread) any {
		th.Sleep(50 * vclock.Millisecond)
		return nil
	})
	w.At(vclock.Time(10*vclock.Millisecond), func() {
		w.SetPriorityOf(th, PriorityDaemon) // while blocked: no runq surgery
	})
	if out := w.Run(vclock.Time(vclock.Second)); out != OutcomeQuiescent {
		t.Fatalf("outcome = %v", out)
	}
	if th.Priority() != PriorityDaemon {
		t.Fatalf("priority = %d", th.Priority())
	}
}

func TestSetPriorityOfNoopAndInvalid(t *testing.T) {
	w := NewWorld(testConfig())
	defer w.Shutdown()
	th := w.Spawn("t", PriorityNormal, func(th *Thread) any {
		th.Sleep(vclock.Millisecond)
		return nil
	})
	w.SetPriorityOf(th, PriorityNormal) // same priority: no-op
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid priority")
		}
	}()
	w.SetPriorityOf(th, Priority(0))
}

func TestKilledAccessor(t *testing.T) {
	w := NewWorld(testConfig())
	th := w.Spawn("t", PriorityNormal, func(th *Thread) any {
		th.Block(BlockCV) // parked forever
		return nil
	})
	w.Run(vclock.Time(10 * vclock.Millisecond))
	if th.Killed() {
		t.Fatal("thread reported killed before shutdown")
	}
	w.Shutdown()
	if !th.Killed() {
		t.Fatal("thread not marked killed after shutdown")
	}
}

// TestShutdownReleasesGoroutines: after Shutdown no goroutine is left
// running a thread, whatever state the thread was in — never
// dispatched, blocked, in the middle of a Compute, dead of an uncaught
// error, rejuvenating (recovering application errors, re-panicking when
// Killed), or finished. Every coroutine the world used is back on the
// idle list, so a second world of the same shape starts no goroutine.
func TestShutdownReleasesGoroutines(t *testing.T) {
	idleCount := func() int {
		idle.Lock()
		defer idle.Unlock()
		return len(idle.list)
	}
	busy := func() int { return runtime.NumGoroutine() - idleCount() }
	runWorld := func() {
		w := NewWorld(Config{SwitchCost: -1})
		w.Spawn("blocked", PriorityNormal, func(th *Thread) any {
			th.Block(BlockCV)
			return nil
		})
		computing := w.Spawn("computing", PriorityLow, func(th *Thread) any {
			th.Compute(vclock.Second)
			return nil
		})
		panicked := w.Spawn("panicked", PriorityHigh, func(th *Thread) any {
			panic("boom")
		})
		w.Spawn("finished", PriorityHigh, func(th *Thread) any { return nil })
		restarts := 0
		w.Spawn("rejuvenating", PriorityNormal, func(th *Thread) any {
			for {
				func() {
					defer func() {
						if r := recover(); r != nil {
							if th.Killed() {
								panic(r)
							}
							restarts++
						}
					}()
					th.Sleep(10 * vclock.Millisecond)
					panic("application error")
				}()
			}
		})
		w.Run(vclock.Time(100 * vclock.Millisecond))
		w.Spawn("never-dispatched", PriorityNormal, func(th *Thread) any { return nil })

		if computing.State() != StateRunning {
			t.Fatalf("computing thread is %v at the horizon, want running", computing.State())
		}
		if _, ok := panicked.Err().(*PanicError); !ok {
			t.Fatalf("panicked thread err = %v, want a PanicError", panicked.Err())
		}
		if restarts == 0 {
			t.Fatal("rejuvenating thread never recovered an application error")
		}
		w.Shutdown()
		for _, th := range w.Threads() {
			if th.State() != StateDead {
				t.Errorf("%s is %v after Shutdown", th.Name(), th.State())
			}
		}
	}

	base := busy()
	runWorld()
	if n := busy(); n > base {
		t.Errorf("%d goroutines besides idle coroutines after Shutdown, %d before the world existed", n, base)
	}
	total := runtime.NumGoroutine()
	runWorld()
	if n := runtime.NumGoroutine(); n > total {
		t.Errorf("second world left %d goroutines, first %d: idle coroutines were not reused", n, total)
	}
}

// TestBlockTimedExactIgnoresGranularity verifies the OS-level wait
// primitive used by socket reads.
func TestBlockTimedExactIgnoresGranularity(t *testing.T) {
	cfg := Config{SwitchCost: -1, TimeoutGranularity: 50 * vclock.Millisecond}
	w := NewWorld(cfg)
	defer w.Shutdown()
	var woke vclock.Time
	w.Spawn("reader", PriorityNormal, func(th *Thread) any {
		if !th.BlockTimedExact(BlockCV, 7*vclock.Millisecond) {
			t.Error("expected timeout")
		}
		woke = th.Now()
		return nil
	})
	w.Run(vclock.Time(vclock.Second))
	if woke != vclock.Time(7*vclock.Millisecond) {
		t.Fatalf("woke at %v, want exactly 7ms", woke)
	}
}

// TestBlockIOExact verifies device I/O completion timing.
func TestBlockIOExact(t *testing.T) {
	cfg := Config{SwitchCost: -1, TimeoutGranularity: 50 * vclock.Millisecond}
	w := NewWorld(cfg)
	defer w.Shutdown()
	var woke vclock.Time
	w.Spawn("io", PriorityNormal, func(th *Thread) any {
		th.BlockIO(3 * vclock.Millisecond)
		woke = th.Now()
		th.BlockIO(0) // no-op
		return nil
	})
	w.Run(vclock.Time(vclock.Second))
	if woke != vclock.Time(3*vclock.Millisecond) {
		t.Fatalf("woke at %v, want 3ms (granularity must not apply)", woke)
	}
}

// TestDirectedYieldForSliceEnds verifies the SystemDaemon's bounded
// donation: the boost ends after the slice even mid-compute.
func TestDirectedYieldForSliceEnds(t *testing.T) {
	w := NewWorld(testConfig())
	defer w.Shutdown()
	var loProgress vclock.Duration
	lo := w.Spawn("lo", PriorityLow, func(th *Thread) any {
		for i := 0; i < 1000; i++ {
			th.Compute(vclock.Millisecond)
			loProgress += vclock.Millisecond
		}
		return nil
	})
	w.Spawn("donor", PriorityNormal, func(th *Thread) any {
		th.Compute(vclock.Millisecond)
		th.DirectedYieldFor(lo, 5*vclock.Millisecond)
		// After the donated slice, strict priority puts us back.
		th.Compute(100 * vclock.Millisecond)
		w.Stop()
		return nil
	})
	w.Run(vclock.Time(vclock.Second))
	if loProgress < 4*vclock.Millisecond || loProgress > 6*vclock.Millisecond {
		t.Fatalf("lo progressed %v during a 5ms donation, want ~5ms", loProgress)
	}
}

// TestMPSpuriousConflict reproduces Birrell's original multiprocessor
// spurious lock conflict: on 2 CPUs the notified thread starts on the
// other processor while the notifier still holds the lock — unless the
// reschedule is deferred. (The §6.1 fix "prevents the problem both in
// the case of interpriority notifications and on multiprocessors.")
func TestMPSpuriousConflictSetup(t *testing.T) {
	// Verified at the monitor level in package monitor; here we check the
	// kernel schedules onto both CPUs concurrently at equal priority.
	cfg := testConfig()
	cfg.CPUs = 2
	w := NewWorld(cfg)
	defer w.Shutdown()
	var aDone, bDone vclock.Time
	w.Spawn("a", PriorityNormal, func(th *Thread) any {
		th.Compute(50 * vclock.Millisecond)
		aDone = th.Now()
		return nil
	})
	w.Spawn("b", PriorityNormal, func(th *Thread) any {
		th.Compute(50 * vclock.Millisecond)
		bDone = th.Now()
		return nil
	})
	w.Run(vclock.Time(vclock.Second))
	if aDone != bDone || aDone != vclock.Time(50*vclock.Millisecond) {
		t.Fatalf("2-CPU overlap broken: a=%v b=%v", aDone, bDone)
	}
}

// TestForkBlocksWithBlockFork pins down the §5.4 "wait in the fork
// implementation" path: at the MaxThreads bound the forking thread is
// parked with BlockFork (observed mid-wait), and it resumes as soon as a
// thread exits.
func TestForkBlocksWithBlockFork(t *testing.T) {
	cfg := testConfig()
	cfg.MaxThreads = 2
	w := NewWorld(cfg)
	defer w.Shutdown()
	var parent *Thread
	var resumedAt vclock.Time
	parent = w.Spawn("parent", PriorityNormal, func(th *Thread) any {
		c1 := th.Fork("c1", func(c *Thread) any {
			c.Compute(30 * vclock.Millisecond)
			return nil
		})
		c1.Detach()
		c2 := th.Fork("c2", func(c *Thread) any { return nil }) // must wait for c1
		resumedAt = th.Now()
		th.Join(c2)
		return nil
	})
	// Mid-wait, the parent must be parked specifically on BlockFork.
	var stateMidWait State
	var reasonMidWait int
	w.At(vclock.Time(10*vclock.Millisecond), func() {
		stateMidWait = parent.State()
		reasonMidWait = parent.BlockedOn()
	})
	if out := w.Run(vclock.Time(vclock.Second)); out != OutcomeQuiescent {
		t.Fatalf("outcome = %v", out)
	}
	if stateMidWait != StateBlocked || reasonMidWait != BlockFork {
		t.Fatalf("mid-wait parent state = %v blocked-on %s, want blocked on %s",
			stateMidWait, BlockReasonName(reasonMidWait), BlockReasonName(BlockFork))
	}
	if resumedAt != vclock.Time(30*vclock.Millisecond) {
		t.Fatalf("fork resumed at %v, want 30ms (c1's exit)", resumedAt)
	}
}

// TestKillThreadDeliversPanic: the fault-injection kill primitive wakes a
// blocked victim and unwinds it as an ordinary application panic, so
// rejuvenation wrappers see a PanicError, not a silent disappearance.
func TestKillThreadDeliversPanic(t *testing.T) {
	w := NewWorld(testConfig())
	defer w.Shutdown()
	victim := w.Spawn("victim", PriorityNormal, func(th *Thread) any {
		th.Block(BlockCV) // parked forever unless killed
		return nil
	})
	w.At(vclock.Time(10*vclock.Millisecond), func() {
		if !w.KillThread(victim, "injected boom") {
			t.Error("KillThread refused a live blocked victim")
		}
	})
	if out := w.Run(vclock.Time(vclock.Second)); out != OutcomeQuiescent {
		t.Fatalf("outcome = %v", out)
	}
	var pe *PanicError
	if !errors.As(victim.Err(), &pe) || !strings.Contains(pe.Error(), "injected boom") {
		t.Fatalf("victim error = %v, want PanicError carrying the injected value", victim.Err())
	}
	if victim.Killed() {
		t.Fatal("injected crash must read as an application error, not a Shutdown kill")
	}
	if w.KillThread(victim, nil) {
		t.Fatal("KillThread succeeded on a dead thread")
	}
}

// TestSetMaxThreadsAdmitsWaiters: raising the bound wakes exactly the
// FORKs the new bound allows, in FIFO order; n <= 0 removes the bound.
func TestSetMaxThreadsAdmitsWaiters(t *testing.T) {
	cfg := testConfig()
	cfg.MaxThreads = 1
	w := NewWorld(cfg)
	defer w.Shutdown()
	var forked []vclock.Time
	w.Spawn("parent", PriorityNormal, func(th *Thread) any {
		for i := 0; i < 3; i++ {
			c := th.Fork("c", func(c *Thread) any {
				c.Block(BlockCV) // stays live so the bound stays saturated
				return nil
			})
			c.Detach()
			forked = append(forked, th.Now())
		}
		return nil
	})
	// parent alone saturates MaxThreads=1, so even the first FORK waits.
	w.At(vclock.Time(20*vclock.Millisecond), func() { w.SetMaxThreads(2) })
	w.At(vclock.Time(40*vclock.Millisecond), func() { w.SetMaxThreads(0) }) // unbounded
	w.Run(vclock.Time(vclock.Second))
	want := []vclock.Time{
		vclock.Time(20 * vclock.Millisecond),
		vclock.Time(40 * vclock.Millisecond),
		vclock.Time(40 * vclock.Millisecond),
	}
	if !reflect.DeepEqual(forked, want) {
		t.Fatalf("fork admission times = %v, want %v", forked, want)
	}
	if w.Config().MaxThreads != 0 {
		t.Fatalf("MaxThreads = %d after removing the bound", w.Config().MaxThreads)
	}
}

// TestRunResetsDeadlocked: a later Run must not report the previous
// Run's deadlocked set (the stale-verdict bug).
func TestRunResetsDeadlocked(t *testing.T) {
	w := NewWorld(testConfig())
	defer w.Shutdown()
	stuck := w.Spawn("stuck", PriorityNormal, func(th *Thread) any {
		th.Block(BlockMutex)
		return nil
	})
	if out := w.Run(vclock.Time(vclock.Second)); out != OutcomeDeadlock {
		t.Fatalf("first run outcome = %v, want deadlock", out)
	}
	if len(w.Deadlocked()) != 1 {
		t.Fatalf("deadlocked = %v", w.Deadlocked())
	}
	w.WakeIfBlocked(stuck, nil)
	if out := w.Run(vclock.Time(2 * vclock.Second)); out != OutcomeQuiescent {
		t.Fatalf("second run outcome = %v, want quiescent", out)
	}
	if len(w.Deadlocked()) != 0 {
		t.Fatalf("stale deadlocked set survived a clean Run: %v", w.Deadlocked())
	}
}

func TestDumpState(t *testing.T) {
	w := NewWorld(testConfig())
	defer w.Shutdown()
	w.Spawn("runner", PriorityNormal, func(th *Thread) any {
		th.Compute(100 * vclock.Millisecond)
		return nil
	})
	w.Spawn("stuck", PriorityHigh, func(th *Thread) any {
		th.Block(BlockMutex)
		return nil
	})
	w.Spawn("napping", PriorityDaemon, func(th *Thread) any {
		th.Sleep(500 * vclock.Millisecond)
		return nil
	})
	w.Run(vclock.Time(10 * vclock.Millisecond))
	var sb strings.Builder
	w.DumpState(&sb)
	out := sb.String()
	for _, want := range []string{"3 live thread(s)", "runner", "stuck", "blocked-on=mutex since 0.000000s (forever)", "napping", "blocked-on=sleep since 0.000000s (timed)", "cpu0"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

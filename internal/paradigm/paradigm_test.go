package paradigm

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/vclock"
)

func newTestMonitor(w *sim.World, name string) *monitor.Monitor {
	return monitor.NewWithOptions(w, name, monitor.Options{LockCost: -1, NotifyCost: -1, WaitCost: -1})
}

// collectorSink is an external device sink (like a socket to the X
// server): Puts cost nothing and involve no thread.
type collectorSink struct{ items []any }

func (c *collectorSink) Put(t *sim.Thread, item any) bool {
	c.items = append(c.items, item)
	return true
}

func (c *collectorSink) Close(t *sim.Thread) {}

func testWorld(t *testing.T, cfg sim.Config) *sim.World {
	t.Helper()
	w := sim.NewWorld(cfg)
	t.Cleanup(w.Shutdown)
	return w
}

func fastCfg() sim.Config { return sim.Config{SwitchCost: -1, TimeoutGranularity: 1} }

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register(KindDeferWork)
	r.Register(KindDeferWork)
	r.Register(KindSlackProcess)
	if r.Count(KindDeferWork) != 2 || r.Count(KindSlackProcess) != 1 || r.Total() != 3 {
		t.Fatalf("counts wrong: %d %d %d", r.Count(KindDeferWork), r.Count(KindSlackProcess), r.Total())
	}
	var nilReg *Registry
	nilReg.Register(KindSleeper) // must not panic
	if nilReg.Count(KindSleeper) != 0 || nilReg.Total() != 0 {
		t.Fatal("nil registry should count nothing")
	}
	tbl := r.Table("Table 4").String()
	if !strings.Contains(tbl, "Defer work") || !strings.Contains(tbl, "TOTAL") {
		t.Fatalf("table missing rows:\n%s", tbl)
	}
	if KindTaskRejuvenate.String() != "Task rejuvenation" {
		t.Fatalf("kind name = %q", KindTaskRejuvenate)
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatal("invalid kind should format its number")
	}
}

func TestRegistryInvalidKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRegistry().Register(Kind(99))
}

func TestBufferFIFOAndClose(t *testing.T) {
	w := testWorld(t, fastCfg())
	b := NewBuffer(w, "buf", 0)
	var got []int
	w.Spawn("producer", sim.PriorityNormal, func(th *sim.Thread) any {
		for i := 0; i < 5; i++ {
			b.Put(th, i)
		}
		b.Close(th)
		if b.Put(th, 99) {
			t.Error("Put after Close succeeded")
		}
		return nil
	})
	w.Spawn("consumer", sim.PriorityNormal, func(th *sim.Thread) any {
		for {
			v, ok := b.Get(th)
			if !ok {
				return nil
			}
			got = append(got, v.(int))
		}
	})
	if out := w.Run(vclock.Time(vclock.Second)); out != sim.OutcomeQuiescent {
		t.Fatalf("outcome = %v", out)
	}
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("got %v", got)
	}
}

func TestBufferCapacityBlocksProducer(t *testing.T) {
	w := testWorld(t, fastCfg())
	b := NewBuffer(w, "buf", 2)
	var putDone vclock.Time
	w.Spawn("producer", sim.PriorityNormal, func(th *sim.Thread) any {
		b.Put(th, 1)
		b.Put(th, 2)
		b.Put(th, 3) // blocks until consumer takes one
		putDone = th.Now()
		return nil
	})
	w.Spawn("consumer", sim.PriorityNormal, func(th *sim.Thread) any {
		th.Compute(10 * vclock.Millisecond)
		b.Get(th)
		return nil
	})
	w.Run(vclock.Time(vclock.Second))
	if putDone < vclock.Time(10*vclock.Millisecond) {
		t.Fatalf("third Put completed at %v, want >= 10ms (bounded buffer)", putDone)
	}
}

func TestBufferTryGet(t *testing.T) {
	w := testWorld(t, fastCfg())
	b := NewBuffer(w, "buf", 0)
	w.Spawn("t", sim.PriorityNormal, func(th *sim.Thread) any {
		if _, ok := b.TryGet(th); ok {
			t.Error("TryGet on empty buffer succeeded")
		}
		b.Put(th, 7)
		v, ok := b.TryGet(th)
		if !ok || v.(int) != 7 {
			t.Errorf("TryGet = %v %v", v, ok)
		}
		return nil
	})
	w.Run(vclock.Time(vclock.Second))
}

func TestPumpPipeline(t *testing.T) {
	w := testWorld(t, fastCfg())
	reg := NewRegistry()
	a := NewBuffer(w, "a", 0)
	bq := NewBuffer(w, "b", 0)
	c := NewBuffer(w, "c", 0)
	// a -> double (dropping 2) -> b -> tag -> c
	p1 := StartPump(w, reg, a, bq, PumpConfig{Name: "double", Transform: func(x any) []any {
		if x.(int) == 2 {
			return nil // a transform may emit nothing
		}
		return []any{x.(int) * 2}
	}})
	p2 := StartPump(w, reg, bq, c, PumpConfig{Name: "tag", Work: vclock.Millisecond})
	var got []int
	w.Spawn("source", sim.PriorityNormal, func(th *sim.Thread) any {
		for i := 1; i <= 3; i++ {
			a.Put(th, i)
		}
		a.Close(th)
		return nil
	})
	w.Spawn("drain", sim.PriorityNormal, func(th *sim.Thread) any {
		for {
			v, ok := c.Get(th)
			if !ok {
				return nil
			}
			got = append(got, v.(int))
		}
	})
	if out := w.Run(vclock.Time(vclock.Second)); out != sim.OutcomeQuiescent {
		t.Fatalf("outcome = %v", out)
	}
	if !reflect.DeepEqual(got, []int{2, 6}) {
		t.Fatalf("pipeline output = %v", got)
	}
	if p1.Moved() != 2 || p2.Moved() != 2 {
		t.Fatalf("pumps moved = %d, %d; want 2, 2", p1.Moved(), p2.Moved())
	}
	if reg.Count(KindGeneralPump) != 2 {
		t.Fatalf("registry pumps = %d", reg.Count(KindGeneralPump))
	}
}

// TestPipelineBackpressure: a slow pump between bounded buffers throttles
// its producer — the §4.2 pipeline's flow control comes from the buffers,
// not from the pump.
func TestPipelineBackpressure(t *testing.T) {
	w := testWorld(t, fastCfg())
	reg := NewRegistry()
	in := NewBuffer(w, "in", 1)
	out := NewBuffer(w, "out", 1)
	slow := StartPump(w, reg, in, out, PumpConfig{Name: "slow", Work: 10 * vclock.Millisecond})
	var srcDone vclock.Time
	w.Spawn("source", sim.PriorityNormal, func(th *sim.Thread) any {
		for i := 0; i < 5; i++ {
			in.Put(th, i) // bounded buffers throttle the producer
		}
		in.Close(th)
		srcDone = th.Now()
		return nil
	})
	w.Spawn("drain", sim.PriorityNormal, func(th *sim.Thread) any {
		for {
			if _, ok := out.Get(th); !ok {
				return nil
			}
		}
	})
	if got := w.Run(vclock.Time(vclock.Second)); got != sim.OutcomeQuiescent {
		t.Fatalf("outcome = %v", got)
	}
	if srcDone < vclock.Time(20*vclock.Millisecond) {
		t.Fatalf("producer finished at %v; backpressure should have throttled it", srcDone)
	}
	if slow.Moved() != 5 {
		t.Fatalf("pump moved = %d, want 5", slow.Moved())
	}
}

func TestDeviceQueue(t *testing.T) {
	w := testWorld(t, fastCfg())
	d := NewDeviceQueue(w, "keys")
	var got []rune
	w.Spawn("notifier", sim.PriorityHigh, func(th *sim.Thread) any {
		for {
			v, ok := d.Get(th)
			if !ok {
				return nil
			}
			got = append(got, v.(rune))
		}
	})
	for i, r := range "abc" {
		r := r
		w.At(vclock.Time(vclock.Duration(i+1)*vclock.Millisecond), func() { d.Push(r) })
	}
	w.At(vclock.Time(10*vclock.Millisecond), d.CloseDevice)
	if out := w.Run(vclock.Time(vclock.Second)); out != sim.OutcomeQuiescent {
		t.Fatalf("outcome = %v", out)
	}
	if string(got) != "abc" {
		t.Fatalf("got %q", string(got))
	}
}

func TestSlackMergesWithYieldButNotToMe(t *testing.T) {
	// The §5.2 scenario in miniature: a low-priority producer emits paint
	// requests with small gaps; the high-priority slack process either
	// merges them (YieldButNotToMe) or forwards them one at a time
	// (plain Yield, because the scheduler hands the CPU right back). The
	// X server is an external process reached by a socket — a Sink, not
	// a competing thread.
	run := func(strategy WaitStrategy) *Slack {
		w := sim.NewWorld(sim.Config{TimeoutGranularity: 1})
		defer w.Shutdown()
		reg := NewRegistry()
		src := NewBuffer(w, "paint", 0)
		dst := &collectorSink{}
		s := StartSlack(w, reg, src, dst, SlackConfig{
			Name:     "buffer-thread",
			Strategy: strategy,
			Merge: func(batch []any) []any {
				return batch[len(batch)-1:] // replace earlier data with later
			},
		})
		w.Spawn("imaging", sim.PriorityLow, func(th *sim.Thread) any {
			for i := 0; i < 50; i++ {
				src.Put(th, i)
				th.Compute(200 * vclock.Microsecond)
			}
			src.Close(th)
			return nil
		})
		w.Run(vclock.Time(10 * vclock.Second))
		return s
	}
	plain := run(SlackYield)
	fixed := run(SlackYieldButNotToMe)
	if plain.In() != 50 || fixed.In() != 50 {
		t.Fatalf("slack did not see all items: plain=%d fixed=%d", plain.In(), fixed.In())
	}
	if fixed.Flushes() >= plain.Flushes() {
		t.Fatalf("YieldButNotToMe should flush less: plain=%d fixed=%d", plain.Flushes(), fixed.Flushes())
	}
	if fixed.MergeRatio() < 2 {
		t.Fatalf("YieldButNotToMe merge ratio = %v, want >= 2", fixed.MergeRatio())
	}
}

func TestSleeperTimeoutDriven(t *testing.T) {
	cfg := sim.Config{SwitchCost: -1, TimeoutGranularity: 50 * vclock.Millisecond}
	w := testWorld(t, cfg)
	reg := NewRegistry()
	runsAt := []vclock.Time{}
	s := StartSleeper(w, reg, "cache-sweeper", 0, 100*vclock.Millisecond, func(t *sim.Thread) {
		runsAt = append(runsAt, t.Now())
	})
	w.At(vclock.Time(350*vclock.Millisecond), w.Stop)
	w.Run(vclock.Time(vclock.Second))
	if s.Runs() != 3 {
		t.Fatalf("sleeper ran %d times in 350ms with 100ms period, want 3 (at %v)", s.Runs(), runsAt)
	}
	if s.Fires() != 0 {
		t.Fatalf("fires = %d, want 0 (all timeouts)", s.Fires())
	}
	if reg.Count(KindSleeper) != 1 {
		t.Fatal("sleeper not registered")
	}
}

func TestSleeperPoke(t *testing.T) {
	w := testWorld(t, fastCfg())
	reg := NewRegistry()
	var ran []vclock.Time
	// High priority so the poke preempts the client immediately.
	s := StartSleeper(w, reg, "svc", sim.PriorityHigh, vclock.Second, func(t *sim.Thread) {
		ran = append(ran, t.Now())
	})
	w.Spawn("client", sim.PriorityNormal, func(th *sim.Thread) any {
		th.Compute(10 * vclock.Millisecond)
		s.Poke(th)
		th.Compute(10 * vclock.Millisecond)
		s.Stop(th)
		return nil
	})
	w.At(vclock.Time(100*vclock.Millisecond), w.Stop)
	w.Run(vclock.Time(2 * vclock.Second))
	lo, hi := vclock.Time(10*vclock.Millisecond), vclock.Time(11*vclock.Millisecond)
	if len(ran) != 1 || ran[0] < lo || ran[0] > hi {
		t.Fatalf("poked sleeper ran at %v, want ~10ms", ran)
	}
	if s.Fires() != 1 {
		t.Fatalf("fires = %d", s.Fires())
	}
}

func TestSleeperPokeExternal(t *testing.T) {
	w := testWorld(t, fastCfg())
	reg := NewRegistry()
	runs := 0
	StartSleeper(w, reg, "svc", 0, vclock.Second, func(t *sim.Thread) { runs++ })
	w.At(vclock.Time(5*vclock.Millisecond), func() {
		for _, th := range w.Threads() {
			_ = th
		}
	})
	var s *Sleeper
	s = StartSleeper(w, reg, "svc2", 0, vclock.Second, func(t *sim.Thread) { runs++ })
	w.At(vclock.Time(10*vclock.Millisecond), s.PokeExternal)
	w.At(vclock.Time(50*vclock.Millisecond), w.Stop)
	w.Run(vclock.Time(2 * vclock.Second))
	if runs != 1 {
		t.Fatalf("runs = %d, want 1 (one external poke)", runs)
	}
}

func TestPeriodicalProcessRegistersBoth(t *testing.T) {
	w := testWorld(t, fastCfg())
	reg := NewRegistry()
	PeriodicalProcess(w, reg, "pp", 100*vclock.Millisecond, func(t *sim.Thread) {})
	if reg.Count(KindSleeper) != 1 || reg.Count(KindEncapsulatedFork) != 1 {
		t.Fatal("PeriodicalProcess should register sleeper + encapsulated fork")
	}
	w.At(vclock.Time(10*vclock.Millisecond), w.Stop)
	w.Run(vclock.Time(vclock.Second))
}

func TestWorkQueue(t *testing.T) {
	w := testWorld(t, fastCfg())
	reg := NewRegistry()
	q := NewWorkQueue(w, reg, "finalizer", 0)
	var done []int
	w.Spawn("gc", sim.PriorityDaemon, func(th *sim.Thread) any {
		for i := 0; i < 3; i++ {
			i := i
			q.Add(th, func(t *sim.Thread) {
				t.Compute(vclock.Millisecond)
				done = append(done, i)
			})
		}
		q.Close(th)
		return nil
	})
	if out := w.Run(vclock.Time(vclock.Second)); out != sim.OutcomeQuiescent {
		t.Fatalf("outcome = %v", out)
	}
	if !reflect.DeepEqual(done, []int{0, 1, 2}) || q.Served() != 3 {
		t.Fatalf("done = %v served = %d", done, q.Served())
	}
}

func TestDelayedFork(t *testing.T) {
	cfg := sim.Config{SwitchCost: -1, TimeoutGranularity: 50 * vclock.Millisecond}
	w := testWorld(t, cfg)
	reg := NewRegistry()
	var ranAt vclock.Time
	DelayedFork(w, reg, "later", 75*vclock.Millisecond, func(t *sim.Thread) {
		ranAt = t.Now()
	})
	w.Run(vclock.Time(vclock.Second))
	if ranAt != vclock.Time(100*vclock.Millisecond) { // 75 rounds to 100
		t.Fatalf("delayed fork ran at %v, want 100ms", ranAt)
	}
	if reg.Count(KindOneShot) != 1 || reg.Count(KindEncapsulatedFork) != 1 {
		t.Fatal("DelayedFork registration wrong")
	}
}

func TestPeriodicalFork(t *testing.T) {
	w := testWorld(t, fastCfg())
	reg := NewRegistry()
	runs := 0
	stop := PeriodicalFork(w, reg, "tick", 20*vclock.Millisecond, func(t *sim.Thread) {
		runs++
	})
	w.At(vclock.Time(70*vclock.Millisecond), stop)
	if out := w.Run(vclock.Time(vclock.Second)); out != sim.OutcomeQuiescent {
		t.Fatalf("outcome = %v", out)
	}
	if runs != 3 { // 20, 40, 60; at 80 sees stop
		t.Fatalf("runs = %d, want 3", runs)
	}
}

func TestGuardedButton(t *testing.T) {
	cfg := sim.Config{SwitchCost: -1, TimeoutGranularity: 1}
	w := testWorld(t, cfg)
	reg := NewRegistry()
	fired := 0
	b := NewGuardedButton(w, reg, "delete", func(t *sim.Thread) { fired++ })
	b.ArmDelay = 200 * vclock.Millisecond
	b.FireWindow = vclock.Second

	click := func(at vclock.Duration) {
		w.At(vclock.Time(at), func() {
			w.Spawn("clicker", sim.PriorityHigh, func(th *sim.Thread) any {
				b.Click(th)
				return nil
			})
		})
	}
	// Click 1 at 0 arms the button after 200ms. Click 2 at 100ms is too
	// close and ignored. Click 3 at 500ms (inside the fire window) fires.
	click(0)
	click(100 * vclock.Millisecond)
	click(500 * vclock.Millisecond)
	w.Run(vclock.Time(5 * vclock.Second))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if b.State() != ButtonGuarded || b.Appearance() != "Bu-tt-on" {
		t.Fatalf("state = %v appearance = %q", b.State(), b.Appearance())
	}
}

func TestGuardedButtonExpires(t *testing.T) {
	w := testWorld(t, sim.Config{SwitchCost: -1, TimeoutGranularity: 1})
	reg := NewRegistry()
	b := NewGuardedButton(w, reg, "delete", func(t *sim.Thread) {
		t.World() // no-op
	})
	b.ArmDelay = 100 * vclock.Millisecond
	b.FireWindow = 500 * vclock.Millisecond
	w.At(0, func() {
		w.Spawn("clicker", sim.PriorityNormal, func(th *sim.Thread) any {
			b.Click(th)
			return nil
		})
	})
	// Probe the armed appearance mid-window.
	var armedAppearance string
	w.At(vclock.Time(300*vclock.Millisecond), func() { armedAppearance = b.Appearance() })
	w.Run(vclock.Time(5 * vclock.Second))
	if armedAppearance != "Button" {
		t.Fatalf("mid-window appearance = %q, want Button", armedAppearance)
	}
	if b.Fired() != 0 || b.Repaints() != 1 || b.State() != ButtonGuarded {
		t.Fatalf("fired=%d repaints=%d state=%v", b.Fired(), b.Repaints(), b.State())
	}
}

func TestMBQueueSerializes(t *testing.T) {
	w := testWorld(t, fastCfg())
	reg := NewRegistry()
	q := NewMBQueue(w, reg, "mbq", sim.PriorityNormal)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		q.EnqueueExternal(vclock.Millisecond, func(t *sim.Thread) {
			order = append(order, i)
		})
	}
	w.At(vclock.Time(100*vclock.Millisecond), q.Close)
	if out := w.Run(vclock.Time(vclock.Second)); out != sim.OutcomeQuiescent {
		t.Fatalf("outcome = %v", out)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("order = %v", order)
	}
	if q.Served() != 5 {
		t.Fatalf("served = %d", q.Served())
	}
}

func TestMBQueueMixedContexts(t *testing.T) {
	w := testWorld(t, fastCfg())
	reg := NewRegistry()
	q := NewMBQueue(w, reg, "mbq", sim.PriorityHigh)
	var order []string
	q.EnqueueExternal(0, func(t *sim.Thread) { order = append(order, "ext1") })
	w.Spawn("client", sim.PriorityNormal, func(th *sim.Thread) any {
		q.Enqueue(th, 0, func(t *sim.Thread) { order = append(order, "thr") })
		return nil
	})
	w.At(vclock.Time(10*vclock.Millisecond), func() {
		q.EnqueueExternal(0, func(t *sim.Thread) { order = append(order, "ext2") })
		q.Close()
	})
	w.Run(vclock.Time(vclock.Second))
	if !reflect.DeepEqual(order, []string{"ext1", "thr", "ext2"}) {
		t.Fatalf("order = %v", order)
	}
}

func TestRejuvenationRestartsService(t *testing.T) {
	w := testWorld(t, fastCfg())
	reg := NewRegistry()
	attempts := 0
	var restarts []int
	s := StartService(w, reg, "dispatcher", 0, 3, func(t *sim.Thread) {
		attempts++
		t.Compute(vclock.Millisecond)
		if attempts < 3 {
			panic("bad callback")
		}
		// Third incarnation survives.
	}, func(n int, cause error) {
		restarts = append(restarts, n)
		if !strings.Contains(cause.Error(), "bad callback") {
			t.Errorf("cause = %v", cause)
		}
	})
	if out := w.Run(vclock.Time(vclock.Second)); out != sim.OutcomeQuiescent {
		t.Fatalf("outcome = %v", out)
	}
	if attempts != 3 || s.Restarts() != 2 {
		t.Fatalf("attempts=%d restarts=%d", attempts, s.Restarts())
	}
	if !reflect.DeepEqual(restarts, []int{1, 2}) {
		t.Fatalf("restart seq = %v", restarts)
	}
	if len(s.Deaths()) != 2 {
		t.Fatalf("deaths = %v", s.Deaths())
	}
}

func TestRejuvenationGivesUp(t *testing.T) {
	w := testWorld(t, fastCfg())
	reg := NewRegistry()
	attempts := 0
	s := StartService(w, reg, "hopeless", 0, 2, func(t *sim.Thread) {
		attempts++
		panic("always broken")
	}, nil)
	w.Run(vclock.Time(vclock.Second))
	if attempts != 3 { // initial + 2 restarts
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if s.Alive() {
		t.Fatal("service should be dead after exhausting restarts")
	}
	if s.Thread().Err() == nil {
		t.Fatal("final death should propagate the error")
	}
}

func TestAvoidForkEscapesLockOrder(t *testing.T) {
	w := testWorld(t, fastCfg())
	reg := NewRegistry()
	muA := newTestMonitor(w, "A")
	muB := newTestMonitor(w, "B")
	repainted := false
	w.Spawn("adjuster", sim.PriorityNormal, func(th *sim.Thread) any {
		// Holds B (out of order w.r.t. A); repainting needs A then B.
		muB.Enter(th)
		AvoidFork(reg, th, "painter", func(c *sim.Thread) {
			muA.Enter(c)
			muB.Enter(c)
			repainted = true
			muB.Exit(c)
			muA.Exit(c)
		})
		th.Compute(vclock.Millisecond)
		muB.Exit(th)
		return nil
	})
	if out := w.Run(vclock.Time(vclock.Second)); out != sim.OutcomeQuiescent {
		t.Fatalf("outcome = %v", out)
	}
	if !repainted {
		t.Fatal("painter never completed")
	}
	if reg.Count(KindDeadlockAvoid) != 1 {
		t.Fatal("not registered")
	}
}

func TestLockSetDetectsViolation(t *testing.T) {
	w := testWorld(t, fastCfg())
	muA := newTestMonitor(w, "A")
	muB := newTestMonitor(w, "B")
	ls := NewLockSet(muA, muB)
	th := w.Spawn("violator", sim.PriorityNormal, func(th *sim.Thread) any {
		ls.Acquire(th, muB)
		if got := ls.Holding(th); len(got) != 1 || got[0] != muB {
			t.Errorf("holding = %v", got)
		}
		ls.Acquire(th, muA) // out of order: panics
		return nil
	})
	w.Run(vclock.Time(vclock.Second))
	if th.Err() == nil || !strings.Contains(th.Err().Error(), "lock-order violation") {
		t.Fatalf("err = %v", th.Err())
	}
}

func TestLockSetOrderedUseWorks(t *testing.T) {
	w := testWorld(t, fastCfg())
	muA := newTestMonitor(w, "A")
	muB := newTestMonitor(w, "B")
	ls := NewLockSet(muA, muB)
	th := w.Spawn("orderly", sim.PriorityNormal, func(th *sim.Thread) any {
		ls.Acquire(th, muA)
		ls.Acquire(th, muB)
		ls.Release(th, muB)
		ls.Release(th, muA)
		return nil
	})
	if out := w.Run(vclock.Time(vclock.Second)); out != sim.OutcomeQuiescent {
		t.Fatalf("outcome = %v", out)
	}
	if th.Err() != nil {
		t.Fatalf("err = %v", th.Err())
	}
}

func TestForkingCallback(t *testing.T) {
	w := testWorld(t, fastCfg())
	reg := NewRegistry()
	directRan, forkedRan := false, false
	var serviceDied error
	svc := w.Spawn("service", sim.PriorityNormal, func(th *sim.Thread) any {
		ForkingCallback(reg, th, "cb1", false, func(c *sim.Thread) { directRan = true })
		ForkingCallback(reg, th, "cb2", true, func(c *sim.Thread) {
			forkedRan = true
			panic("client bug")
		})
		th.Compute(vclock.Millisecond)
		return nil
	})
	w.Run(vclock.Time(vclock.Second))
	serviceDied = svc.Err()
	if !directRan || !forkedRan {
		t.Fatal("callbacks did not run")
	}
	// The forked callback's panic must NOT kill the service thread.
	if serviceDied != nil {
		t.Fatalf("service died: %v", serviceDied)
	}
}

func TestParallelDo(t *testing.T) {
	cfg := fastCfg()
	cfg.CPUs = 4
	w := testWorld(t, cfg)
	reg := NewRegistry()
	var done vclock.Time
	results := make([]bool, 4)
	w.Spawn("exploiter", sim.PriorityNormal, func(th *sim.Thread) any {
		err := ParallelDo(reg, th, "worker", 4, func(c *sim.Thread, i int) {
			c.Compute(100 * vclock.Millisecond)
			results[i] = true
		})
		if err != nil {
			t.Errorf("ParallelDo err = %v", err)
		}
		done = th.Now()
		return nil
	})
	if out := w.Run(vclock.Time(vclock.Second)); out != sim.OutcomeQuiescent {
		t.Fatalf("outcome = %v", out)
	}
	for i, r := range results {
		if !r {
			t.Fatalf("worker %d did not run", i)
		}
	}
	// 4 workers on 4 CPUs: ~100ms wall, not 400ms.
	if done > vclock.Time(150*vclock.Millisecond) {
		t.Fatalf("parallel work took %v, want ~100ms", done)
	}
	if reg.Count(KindConcurrencyExploit) != 1 {
		t.Fatal("not registered")
	}
}

func TestParallelDoPropagatesError(t *testing.T) {
	w := testWorld(t, fastCfg())
	reg := NewRegistry()
	var got error
	w.Spawn("exploiter", sim.PriorityNormal, func(th *sim.Thread) any {
		got = ParallelDo(reg, th, "worker", 2, func(c *sim.Thread, i int) {
			if i == 1 {
				panic("worker died")
			}
		})
		return nil
	})
	w.Run(vclock.Time(vclock.Second))
	if got == nil || !strings.Contains(got.Error(), "worker died") {
		t.Fatalf("err = %v", got)
	}
}

func TestDeferToAndDeferAt(t *testing.T) {
	w := testWorld(t, fastCfg())
	reg := NewRegistry()
	var order []string
	w.Spawn("notifier", sim.PriorityHigh, func(th *sim.Thread) any {
		DeferAt(reg, th, "real-work", sim.PriorityLow, func(c *sim.Thread) {
			c.Compute(vclock.Millisecond)
			order = append(order, "deferred")
		})
		order = append(order, "notifier-free")
		return nil
	})
	w.Run(vclock.Time(vclock.Second))
	// The critical thread continues before the low-priority work runs.
	if !reflect.DeepEqual(order, []string{"notifier-free", "deferred"}) {
		t.Fatalf("order = %v", order)
	}
	if reg.Count(KindDeferWork) != 1 {
		t.Fatal("not registered")
	}

	w2 := testWorld(t, fastCfg())
	ran := false
	w2.Spawn("cmd", sim.PriorityNormal, func(th *sim.Thread) any {
		DeferTo(reg, th, "print-doc", func(c *sim.Thread) { ran = true })
		return nil
	})
	w2.Run(vclock.Time(vclock.Second))
	if !ran || reg.Count(KindDeferWork) != 2 {
		t.Fatal("DeferTo failed")
	}
}

func TestSlackMaxBatch(t *testing.T) {
	w := testWorld(t, fastCfg())
	reg := NewRegistry()
	src := NewBuffer(w, "src", 0)
	var batches []int
	pending := 0
	sink := sinkCounter{onPut: func() { pending++ }}
	s := StartSlack(w, reg, src, sink, SlackConfig{
		Strategy: SlackNone,
		MaxBatch: 3,
		Merge: func(batch []any) []any {
			batches = append(batches, len(batch))
			return batch
		},
	})
	w.Spawn("producer", sim.PriorityLow, func(th *sim.Thread) any {
		for i := 0; i < 10; i++ {
			src.Put(th, i)
		}
		src.Close(th)
		return nil
	})
	if out := w.Run(vclock.Time(vclock.Second)); out != sim.OutcomeQuiescent {
		t.Fatalf("outcome = %v", out)
	}
	for _, b := range batches {
		if b > 3 {
			t.Fatalf("batch of %d exceeds MaxBatch 3 (batches %v)", b, batches)
		}
	}
	if s.In() != 10 || s.Out() != 10 {
		t.Fatalf("in/out = %d/%d", s.In(), s.Out())
	}
	if s.MergeRatio() != 1.0 {
		t.Fatalf("merge ratio = %v", s.MergeRatio())
	}
}

type sinkCounter struct{ onPut func() }

func (s sinkCounter) Put(t *sim.Thread, item any) bool { s.onPut(); return true }
func (s sinkCounter) Close(t *sim.Thread)              {}

func TestWaitStrategyString(t *testing.T) {
	names := map[WaitStrategy]string{
		SlackNone: "none", SlackYield: "yield",
		SlackYieldButNotToMe: "yield-but-not-to-me", SlackSleep: "sleep",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if WaitStrategy(99).String() != "invalid" {
		t.Error("out-of-range strategy name")
	}
}

func TestButtonStateString(t *testing.T) {
	if ButtonGuarded.String() != "guarded" || ButtonArmed.String() != "armed" || ButtonState(9).String() != "invalid" {
		t.Fatal("button state names wrong")
	}
}

func TestDeviceQueueSingleConsumerPanics(t *testing.T) {
	w := testWorld(t, fastCfg())
	d := NewDeviceQueue(w, "dev")
	w.Spawn("c1", sim.PriorityNormal, func(th *sim.Thread) any {
		d.Get(th)
		return nil
	})
	second := w.Spawn("c2", sim.PriorityNormal, func(th *sim.Thread) any {
		th.Compute(vclock.Millisecond)
		d.Get(th) // second consumer: panics
		return nil
	})
	w.Run(vclock.Time(vclock.Second))
	if second.Err() == nil {
		t.Fatal("second consumer should have panicked")
	}
}

func TestLockSetUnknownMonitorPanics(t *testing.T) {
	w := testWorld(t, fastCfg())
	ls := NewLockSet(newTestMonitor(w, "A"))
	stranger := newTestMonitor(w, "B")
	th := w.Spawn("t", sim.PriorityNormal, func(th *sim.Thread) any {
		ls.Acquire(th, stranger)
		return nil
	})
	w.Run(vclock.Time(vclock.Second))
	if th.Err() == nil {
		t.Fatal("acquiring a monitor outside the set should panic")
	}
	th2 := w.Spawn("t2", sim.PriorityNormal, func(th *sim.Thread) any {
		ls.Release(th, stranger)
		return nil
	})
	w.Run(vclock.Time(2 * vclock.Second))
	if th2.Err() == nil {
		t.Fatal("releasing an unheld monitor should panic")
	}
}

package workload

import (
	"fmt"

	"repro/internal/paradigm"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// Event kinds flowing through the Cedar input pipeline.
type inputEvent struct {
	kind  string      // "key", "mouse", "scroll"
	count int         // coalesced count for mouse batches
	born  vclock.Time // hardware arrival, for echo-latency measurement
}

// CedarParams are the calibration knobs of the Cedar model. Defaults are
// tuned so the idle system and the eight benchmarks land near the paper's
// Tables 1–3 operating points; DESIGN.md documents the reasoning.
type CedarParams struct {
	LibrarySize int

	// Eternal population.
	TimeoutSleepers int             // timeout-driven eternal sleepers
	SleeperPeriods  vclock.Duration // mean period (spread deterministically)
	SleeperTouches  int
	PumpChains      int
	ChainPeriod     vclock.Duration
	UIPokeables     int
	UITouches       int
	UIWork          vclock.Duration

	// Background work (45–50 ms execution-interval peak).
	Scavengers     int
	ScavengerDelay vclock.Duration
	ScavengerWork  vclock.Duration

	// Idle transient forking ("about once every 2 seconds", 2 generations).
	IdleForkPeriod vclock.Duration

	// Keystroke echo path.
	EchoTouches   int
	EchoWork      vclock.Duration
	UIPokesPerKey int // UI sleepers poked per keystroke (each poked twice)

	// Mouse handling.
	MouseTouches int
	MouseUIPokes int

	// NotifierPriority overrides the Notifier's priority (default
	// sim.PriorityInterrupt — Cedar's level 7). Lowering it is the F12
	// ablation: what responsiveness costs when the input path is not
	// privileged.
	NotifierPriority sim.Priority
	// FormatterPriority overrides the formatting worker's priority
	// (default sim.PriorityBackground — §3's "user-initiated tasks").
	FormatterPriority sim.Priority

	// Scrolling.
	ScrollTouches   int
	ScrollWork      vclock.Duration
	ScrollUIPokes   int
	ScrollForkEvery int // fork a repaint transient every Nth scroll
}

// DefaultCedarParams returns the calibrated defaults.
func DefaultCedarParams() CedarParams {
	return CedarParams{
		LibrarySize:     3400,
		TimeoutSleepers: 12,
		SleeperPeriods:  145 * vclock.Millisecond,
		SleeperTouches:  2,
		PumpChains:      4,
		ChainPeriod:     150 * vclock.Millisecond,
		UIPokeables:     8,
		UITouches:       8,
		UIWork:          250 * vclock.Microsecond,
		Scavengers:      2,
		ScavengerDelay:  2500 * vclock.Millisecond,
		ScavengerWork:   150 * vclock.Millisecond,
		IdleForkPeriod:  2 * vclock.Second,
		EchoTouches:     360,
		EchoWork:        1500 * vclock.Microsecond,
		UIPokesPerKey:   8,
		MouseTouches:    45,
		MouseUIPokes:    4,
		ScrollTouches:   1500,
		ScrollWork:      100 * vclock.Millisecond,
		ScrollUIPokes:   8,
		ScrollForkEvery: 3,
	}
}

// Cedar regions of the module library (see DESIGN.md): the idle core plus
// per-activity module sets, sized to land near Table 3's distinct-ML
// counts.
func (p CedarParams) regions() map[string]Region {
	return map[string]Region{
		"core":    {0, 520},
		"text":    {520, 940},
		"cursor":  {520, 740},
		"window":  {520, 800},
		"ui":      {520, 760},
		"format":  {520, 1080},
		"preview": {520, 960},
		"make":    {1080, 1860},
		"compile": {840, 3380},
	}
}

// Cedar is one modeled Cedar world: the idle eternal-thread population
// plus whatever benchmark activity has been started on it.
type Cedar struct {
	W   *sim.World
	Reg *paradigm.Registry
	Lib *Library
	P   CedarParams

	regions map[string]Region

	input      *paradigm.DeviceQueue // raw keyboard/mouse hardware
	events     *paradigm.Buffer      // preprocessed event queue
	shell      *paradigm.MBQueue     // command-shell serialization context
	uiThreads  []*paradigm.Sleeper
	chains     []*PumpChain        // eternal pump chains (X output, journaling, ...)
	gcWork     *paradigm.WorkQueue // finalization callbacks (§4.3)
	dispatcher *paradigm.Service   // task-rejuvenating event dispatcher (§4.5)

	// EchoLatency records keystroke-to-echo latency, the paper's prime
	// usability number.
	EchoLatency stats.LatencyRecorder

	// Dispatched counts events the dispatcher has handled — the progress
	// counter resilience experiments watch to measure recovery.
	Dispatched int64

	scrollCount int // numbers scroll events for the fork-every-Nth pattern
	stops       []func()
}

// NewCedar builds the idle Cedar world: ~35 eternal threads (sleepers,
// pump chains, pokeable UI helpers, scavengers, Notifier, dispatcher,
// command shell, GC daemon), the idle transient forker, and the input
// pipeline "all user input is filtered through" (§4.2).
func NewCedar(w *sim.World, reg *paradigm.Registry, p CedarParams) *Cedar {
	c := &Cedar{
		W: w, Reg: reg, P: p,
		Lib:     NewLibrary(w, "cedar-lib", p.LibrarySize),
		regions: p.regions(),
	}
	c.input = paradigm.NewDeviceQueue(w, "input-device")
	c.events = paradigm.NewBuffer(w, "event-queue", 0)
	c.shell = paradigm.NewMBQueue(w, reg, "command-shell", sim.PriorityNormal)

	core := c.regions["core"]

	// Timeout-driven eternal sleepers, priorities spread over 1–4 ("the
	// four standard priority values"; level 5 is never used in Cedar).
	// Per-activation work spreads over 1.5-4.5 ms — the paper's
	// execution-interval peak near 3 ms — with a few slower sleepers
	// doing 8-16 ms bursts (cache sweeps, layout passes).
	var specs []EternalSpec
	for i := 0; i < p.TimeoutSleepers; i++ {
		period := p.SleeperPeriods + vclock.Duration(i-p.TimeoutSleepers/2)*12*vclock.Millisecond
		work := vclock.Duration(1500+1000*(i%4)) * vclock.Microsecond
		if i >= p.TimeoutSleepers-3 {
			k := i - (p.TimeoutSleepers - 3)
			work = vclock.Duration(6+3*k) * vclock.Millisecond
			period = vclock.Duration(400+100*k) * vclock.Millisecond
		}
		specs = append(specs, EternalSpec{
			Name:    fmt.Sprintf("eternal-%d", i),
			Pri:     sim.Priority(1 + i%4),
			Period:  period,
			Touches: p.SleeperTouches,
			Region:  core,
			Work:    work,
		})
	}
	SpawnEternals(w, reg, c.Lib, specs)

	for i := 0; i < p.PumpChains; i++ {
		period := p.ChainPeriod + vclock.Duration(i)*20*vclock.Millisecond
		c.chains = append(c.chains, SpawnPumpChain(w, reg, c.Lib, fmt.Sprintf("chain-%d", i), sim.Priority(1+i%4), period, 3, core, 400*vclock.Microsecond))
	}

	// Pokeable UI helpers. Even-numbered helpers nudge their odd
	// neighbor when activated (caret moves wake the selection
	// highlighter, and so on), so one input event fans out into a small
	// second wave of notified waits — the "significant increases in
	// activity by eternal threads" of §3.
	uiRegion := c.regions["ui"]
	for i := 0; i < p.UIPokeables; i++ {
		i := i
		s := paradigm.StartSleeper(w, reg, fmt.Sprintf("ui-helper-%d", i), sim.PriorityNormal, 0, func(t *sim.Thread) {
			c.Lib.Touch(t, uiRegion, p.UITouches)
			t.Compute(p.UIWork)
			if i%2 == 0 && i+1 < len(c.uiThreads) {
				c.uiThreads[i+1].Poke(t)
			}
		})
		c.uiThreads = append(c.uiThreads, s)
	}

	// Periodic compute-bound scavengers produce the paper's second
	// execution-interval peak at the quantum length: they run at the
	// default priority, so equal-priority round-robin (not preemption)
	// slices their long computes into quantum-sized intervals.
	for i := 0; i < p.Scavengers; i++ {
		i := i
		paradigm.StartSleeper(w, reg, fmt.Sprintf("scavenger-%d", i), sim.PriorityNormal, p.ScavengerDelay, func(t *sim.Thread) {
			c.Lib.Touch(t, core, 4)
			// Work in quantum-sized chunks with a breath of I/O between
			// them: the execution intervals still peak at the quantum,
			// but an echo fork never queues behind the whole pass.
			chunk := 50 * vclock.Millisecond
			for left := p.ScavengerWork; left > 0; left -= chunk {
				if left < chunk {
					t.Compute(left)
					break
				}
				t.Compute(chunk)
				t.BlockIO(500 * vclock.Microsecond)
			}
		})
	}

	// GC daemon at priority 6 with a finalization work queue; callbacks
	// are forked per §4.4 ("the finalization service thread forks each
	// callback").
	c.gcWork = paradigm.NewWorkQueue(w, reg, "finalizer", sim.PriorityNormal)
	paradigm.StartSleeper(w, reg, "gc-daemon", sim.PriorityDaemon, 3*vclock.Second, func(t *sim.Thread) {
		c.Lib.Touch(t, core, 25)
		t.Compute(2 * vclock.Millisecond)
	})

	// The idle transient forker: a transient roughly every 2 s, each
	// forking a second-generation child (§3's forking-pattern analysis).
	if p.IdleForkPeriod > 0 {
		stop := paradigm.PeriodicalFork(w, reg, "idle-forker", p.IdleForkPeriod, func(t *sim.Thread) {
			paradigm.DeferTo(reg, t, "idle-transient", func(t1 *sim.Thread) {
				c.Lib.Touch(t1, core, 18)
				t1.Compute(4 * vclock.Millisecond)
				paradigm.DeferTo(reg, t1, "idle-transient-child", func(t2 *sim.Thread) {
					c.Lib.Touch(t2, core, 12)
					t2.Compute(2 * vclock.Millisecond)
				})
			})
		})
		c.stops = append(c.stops, stop)
	}

	c.startNotifier()
	c.startDispatcher()
	return c
}

// startNotifier spawns the keyboard-and-mouse watching process — "such a
// critical, high priority thread in both Cedar and GVX" (§4.1) — at
// priority 7 (Cedar's interrupt level). It preprocesses raw events and
// pumps them into the event queue, coalescing mouse motion.
func (c *Cedar) startNotifier() {
	c.Reg.Register(paradigm.KindGeneralPump)
	core := c.regions["core"]
	pri := c.P.NotifierPriority
	if pri == 0 {
		pri = sim.PriorityInterrupt
	}
	c.W.Spawn("Notifier", pri, func(t *sim.Thread) any {
		for {
			ev, ok := c.input.Get(t)
			if !ok {
				c.events.Close(t)
				return nil
			}
			batch := []inputEvent{ev.(inputEvent)}
			for {
				more, ok := c.input.TryGet(t)
				if !ok {
					break
				}
				batch = append(batch, more.(inputEvent))
			}
			c.Lib.Touch(t, core, 2)
			// Coalesce runs of mouse motion; forward the rest singly.
			out := batch[:0]
			for _, e := range batch {
				if e.kind == "mouse" && len(out) > 0 && out[len(out)-1].kind == "mouse" {
					out[len(out)-1].count += e.count
					continue
				}
				out = append(out, e)
			}
			for _, e := range out {
				c.events.Put(t, e)
			}
		}
	})
}

// startDispatcher spawns the input event dispatcher under task
// rejuvenation — the exact §4.5 example: it makes unforked callbacks
// (they are on the critical path and usually very short), so a
// rejuvenating fork keeps a new copy running when a callback errors.
func (c *Cedar) startDispatcher() {
	c.dispatcher = paradigm.StartService(c.W, c.Reg, "event-dispatcher", sim.PriorityNormal, 1000, func(t *sim.Thread) {
		for {
			ev, ok := c.events.Get(t)
			if !ok {
				return
			}
			c.dispatch(t, ev.(inputEvent))
		}
	}, nil)
}

// Dispatcher exposes the rejuvenating event dispatcher so resilience
// experiments can observe its restart count.
func (c *Cedar) Dispatcher() *paradigm.Service { return c.dispatcher }

// dispatch handles one preprocessed event in the dispatcher thread.
func (c *Cedar) dispatch(t *sim.Thread, ev inputEvent) {
	c.Dispatched++
	switch ev.kind {
	case "key":
		// Keystrokes go to the command shell, which forks an echo
		// transient per keystroke (§3: "keyboard activity causes a
		// transient thread to be forked by the command-shell thread for
		// every keystroke").
		born := ev.born
		c.shell.Enqueue(t, 200*vclock.Microsecond, func(sh *sim.Thread) {
			c.Lib.Touch(sh, c.regions["core"], 8)
			paradigm.DeferTo(c.Reg, sh, "echo", func(e *sim.Thread) {
				c.Lib.Touch(e, c.regions["text"], c.P.EchoTouches)
				e.Compute(c.P.EchoWork)
				if born != 0 {
					c.EchoLatency.Add(e.Now().Sub(born))
				}
				c.pokeUI(c.P.UIPokesPerKey, 1)
				// The echo also feeds the output pump chains (screen
				// paints, typescript journaling): more notified waits.
				for _, ch := range c.chains {
					ch.Buffer.Put(e, struct{}{})
				}
			})
		})
	case "mouse":
		// Mouse motion forks nothing (§3); the dispatcher tracks the
		// cursor inline and nudges a few UI helpers.
		c.Lib.Touch(t, c.regions["cursor"], c.P.MouseTouches)
		t.Compute(300 * vclock.Microsecond)
		c.pokeUI(c.P.MouseUIPokes, 1)
	case "scroll":
		n := c.scrollCount
		c.scrollCount++
		c.shell.Enqueue(t, 200*vclock.Microsecond, func(sh *sim.Thread) {
			c.Lib.Touch(sh, c.regions["window"], c.P.ScrollTouches)
			sh.Compute(c.P.ScrollWork)
			c.pokeUI(c.P.ScrollUIPokes, 1)
			// "Scrolling a text window 10 times causes 3 transient
			// threads to be forked, one of which is the child of one of
			// the other transients."
			if c.P.ScrollForkEvery > 0 && n%c.P.ScrollForkEvery == c.P.ScrollForkEvery-1 {
				paradigm.DeferTo(c.Reg, sh, "scroll-repaint", func(r *sim.Thread) {
					c.Lib.Touch(r, c.regions["window"], 40)
					r.Compute(3 * vclock.Millisecond)
					if n%(2*c.P.ScrollForkEvery) == c.P.ScrollForkEvery-1 {
						paradigm.DeferTo(c.Reg, r, "scroll-repaint-child", func(r2 *sim.Thread) {
							c.Lib.Touch(r2, c.regions["window"], 25)
							r2.Compute(2 * vclock.Millisecond)
						})
					}
				})
			}
		})
	}
}

// pokeUI pokes the first n pokeable UI threads, `times` pokes each.
func (c *Cedar) pokeUI(n, times int) {
	if n > len(c.uiThreads) {
		n = len(c.uiThreads)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < times; j++ {
			c.uiThreads[i].PokeExternal()
		}
	}
}

// generate schedules fire() on w at jittered intervals of mean interval
// until the returned stop function is called. The Cedar and GVX input
// generators share it.
func generate(w *sim.World, mean vclock.Duration, fire func()) (stop func()) {
	stopped := false
	var next func()
	schedule := func() {
		// Jitter in [0.5, 1.5) of the mean, deterministic per seed.
		j := vclock.Duration(float64(mean) * (0.5 + w.Rand().Float64()))
		w.After(j, next)
	}
	next = func() {
		if stopped {
			return
		}
		fire()
		schedule()
	}
	schedule()
	return func() { stopped = true }
}

// StartKeyboard begins keystroke input at about keysPerSec.
func (c *Cedar) StartKeyboard(keysPerSec float64) {
	mean := vclock.Duration(float64(vclock.Second) / keysPerSec)
	c.stops = append(c.stops, generate(c.W, mean, func() {
		c.input.Push(inputEvent{kind: "key", count: 1, born: c.W.Now()})
	}))
}

// StartMouse begins mouse motion at about eventsPerSec raw events,
// delivered in hardware bursts of 4 that the Notifier coalesces — which
// is why mouse motion raises monitor traffic far less than its raw event
// rate suggests.
func (c *Cedar) StartMouse(eventsPerSec float64) {
	const burst = 4
	mean := vclock.Duration(float64(vclock.Second) * burst / eventsPerSec)
	c.stops = append(c.stops, generate(c.W, mean, func() {
		for i := 0; i < burst; i++ {
			c.input.Push(inputEvent{kind: "mouse", count: 1})
		}
	}))
}

// StartScrolling begins window-scroll clicks at about scrollsPerSec.
func (c *Cedar) StartScrolling(scrollsPerSec float64) {
	mean := vclock.Duration(float64(vclock.Second) / scrollsPerSec)
	c.stops = append(c.stops, generate(c.W, mean, func() {
		c.input.Push(inputEvent{kind: "scroll", count: 1})
	}))
}

// Stop halts all input generators and benchmark workers.
func (c *Cedar) Stop() {
	for _, s := range c.stops {
		s()
	}
	c.stops = nil
}

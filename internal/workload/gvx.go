package workload

import (
	"fmt"

	"repro/internal/paradigm"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// GVXParams are the calibration knobs of the GVX (GlobalView) model. GVX
// contrasts with Cedar everywhere the paper looked: 22 eternal threads,
// no forking at all (not even for input), almost everything at priority
// 3, interrupts at level 5 rather than 7, far fewer distinct monitors and
// CVs, nearly all waits timing out when idle, and noticeably higher
// monitor contention under load.
type GVXParams struct {
	LibrarySize int

	TimeoutSleepers int
	SleeperPeriod   vclock.Duration
	SleeperTouches  int
	SleeperWork     vclock.Duration
	UIPokeables     int
	UITouches       int
	UIWork          vclock.Duration

	// Per-keystroke handling (unforked, in the Notifier's callback chain).
	KeyTouches    int
	KeyWork       vclock.Duration
	UIPokesPerKey int

	MouseTouches int
	MouseUIPokes int

	// Scrolling hits one shared window monitor hard — the contention the
	// paper measured at 0.4 %.
	ScrollTouches     int
	ScrollWork        vclock.Duration
	ScrollWindowHolds int             // touches of the single shared window monitor
	ScrollWindowHold  vclock.Duration // hold time of that monitor
}

// DefaultGVXParams returns the calibrated defaults.
func DefaultGVXParams() GVXParams {
	return GVXParams{
		LibrarySize:       230,
		TimeoutSleepers:   15,
		SleeperPeriod:     470 * vclock.Millisecond,
		SleeperTouches:    10,
		SleeperWork:       900 * vclock.Microsecond,
		UIPokeables:       3,
		UITouches:         14,
		UIWork:            500 * vclock.Microsecond,
		KeyTouches:        200,
		KeyWork:           2 * vclock.Millisecond,
		UIPokesPerKey:     2,
		MouseTouches:      12,
		MouseUIPokes:      1,
		ScrollTouches:     70,
		ScrollWork:        150 * vclock.Millisecond,
		ScrollWindowHolds: 3,
		ScrollWindowHold:  600 * vclock.Microsecond,
	}
}

func (p GVXParams) regions() map[string]Region {
	return map[string]Region{
		"core":   {0, 44},
		"text":   {44, 190},
		"cursor": {0, 48},
		"window": {44, 200},
	}
}

// GVX is one modeled GVX world.
type GVX struct {
	W   *sim.World
	Reg *paradigm.Registry
	Lib *Library
	P   GVXParams

	regions map[string]Region
	input   *paradigm.DeviceQueue
	groups  []*SleeperGroup // timeout sleepers sharing CVs (Table 3: ~5 CVs)
	ui      *SleeperGroup   // event-driven UI helpers sharing one CV
	// windowMonitor is the shared monitor index scrolling contends on.
	windowMonitor int

	stops []func()
}

// NewGVX builds the idle GVX world: 22 eternal threads, no transient
// forking, input handled entirely by unforked callbacks from the
// Notifier chain.
func NewGVX(w *sim.World, reg *paradigm.Registry, p GVXParams) *GVX {
	g := &GVX{
		W: w, Reg: reg, P: p,
		Lib:     NewLibrary(w, "gvx-lib", p.LibrarySize),
		regions: p.regions(),
	}
	g.input = paradigm.NewDeviceQueue(w, "gvx-input")
	g.windowMonitor = 10 // a core monitor every UI path shares

	core := g.regions["core"]

	// Almost all GVX threads sit at priority 3, and the population shares
	// a handful of CVs: three timeout groups of five threads each. Every
	// third member also passes through the shared window monitor.
	perGroup := p.TimeoutSleepers / 3
	for gi := 0; gi < 3; gi++ {
		period := p.SleeperPeriod + vclock.Duration(gi-1)*90*vclock.Millisecond
		grp := SpawnSleeperGroupFunc(w, reg, fmt.Sprintf("gvx-group-%d", gi), perGroup,
			sim.PriorityLow, period, func(t *sim.Thread, i int) {
				if i%3 == 0 {
					g.Lib.TouchOne(t, g.windowMonitor, 80*vclock.Microsecond)
				}
				g.Lib.Touch(t, core, p.SleeperTouches)
				// One member of the first group is a heavyweight (a
				// layout/paint pass): its quantum-sliced bursts give GVX
				// the paper's large execution-time share at ~50 ms.
				if gi == 0 && i == 0 {
					t.Compute(50 * vclock.Millisecond)
					return
				}
				t.Compute(p.SleeperWork + vclock.Duration(i%3)*800*vclock.Microsecond)
			})
		g.groups = append(g.groups, grp)
	}

	// Event-driven UI helpers sharing one CV; each activation also passes
	// through the shared window monitor, which is how scrolling produces
	// contention (§3's 0.4 %).
	g.ui = SpawnSleeperGroupFunc(w, reg, "gvx-ui", p.UIPokeables, sim.PriorityLow, 0, func(t *sim.Thread, i int) {
		g.Lib.TouchOne(t, g.windowMonitor, 120*vclock.Microsecond)
		g.Lib.Touch(t, g.regions["text"], p.UITouches)
		t.Compute(p.UIWork)
	})

	// "The lower two priority levels [are used] only for a few background
	// helper tasks. Two of the five low-priority threads in fact never
	// ran during our experiments": two helpers wait on events that never
	// come.
	for i := 0; i < 2; i++ {
		reg.Register(paradigm.KindUnknown)
		w.Spawn(fmt.Sprintf("gvx-helper-idle-%d", i), sim.PriorityMin, func(t *sim.Thread) any {
			t.Block(sim.BlockCV) // parked forever
			return nil
		})
	}
	// ...and two that occasionally do run.
	for i := 0; i < 2; i++ {
		paradigm.StartSleeper(w, reg, fmt.Sprintf("gvx-helper-%d", i), sim.PriorityBackground, 5*vclock.Second, func(t *sim.Thread) {
			g.Lib.Touch(t, core, 6)
			t.Compute(30 * vclock.Millisecond)
		})
	}

	g.startNotifier()
	return g
}

// startNotifier spawns GVX's Notifier at priority 5 — "while Cedar uses
// level 7 for interrupt handling and doesn't use level 5, GVX does the
// opposite". It handles every event inline with unforked callbacks: "no
// additional threads are forked for any user interface activity" (§3).
func (g *GVX) startNotifier() {
	g.Reg.Register(paradigm.KindSerializer)
	g.W.Spawn("gvx-Notifier", sim.PriorityHigh, func(t *sim.Thread) any {
		for {
			ev, ok := g.input.Get(t)
			if !ok {
				return nil
			}
			e := ev.(inputEvent)
			// Coalesce trailing mouse motion.
			for e.kind == "mouse" {
				more, ok := g.input.TryGet(t)
				if !ok {
					break
				}
				m := more.(inputEvent)
				if m.kind != "mouse" {
					g.handle(t, e)
					e = m
					continue
				}
				e.count += m.count
			}
			g.handle(t, e)
		}
	})
}

func (g *GVX) handle(t *sim.Thread, e inputEvent) {
	switch e.kind {
	case "key":
		g.Lib.Touch(t, g.regions["text"], g.P.KeyTouches)
		g.Lib.TouchOne(t, g.windowMonitor, 150*vclock.Microsecond)
		t.Compute(g.P.KeyWork)
		// Keyboard activity turns the UI-related sleeper groups
		// event-driven: notifies beat their timeouts, which is how GVX's
		// timeout fraction collapses from 99 % idle to 42 % while typing
		// even though nothing is forked.
		for i := 0; i < g.P.UIPokesPerKey; i++ {
			g.ui.PokeExternal()
			g.groups[i%len(g.groups)].PokeExternal()
		}
	case "mouse":
		// Coalesced cursor tracking: cheap, pokes nothing — GVX mouse
		// activity looks almost exactly like an idle system (Table 2).
		g.Lib.Touch(t, g.regions["cursor"], g.P.MouseTouches)
		t.Compute(250 * vclock.Microsecond)
	case "scroll":
		// Wake the UI helpers first; they contend on the window monitor
		// during the repaint's display I/O below.
		for i := 0; i < g.P.UIPokeables; i++ {
			g.ui.PokeExternal()
		}
		g.Lib.Touch(t, g.regions["window"], g.P.ScrollTouches)
		for i := 0; i < g.P.ScrollWindowHolds; i++ {
			g.Lib.TouchOneIO(t, g.windowMonitor, g.P.ScrollWindowHold, 1500*vclock.Microsecond)
		}
		t.Compute(g.P.ScrollWork)
	}
}

// StartKeyboard begins keystroke input at about keysPerSec.
func (g *GVX) StartKeyboard(keysPerSec float64) {
	mean := vclock.Duration(float64(vclock.Second) / keysPerSec)
	g.stops = append(g.stops, generate(g.W, mean, func() {
		g.input.Push(inputEvent{kind: "key", count: 1})
	}))
}

// StartMouse begins mouse motion at about eventsPerSec raw events,
// delivered in hardware bursts of 10 (coalesced by the Notifier).
func (g *GVX) StartMouse(eventsPerSec float64) {
	const burst = 10
	mean := vclock.Duration(float64(vclock.Second) * burst / eventsPerSec)
	g.stops = append(g.stops, generate(g.W, mean, func() {
		for i := 0; i < burst; i++ {
			g.input.Push(inputEvent{kind: "mouse", count: 1})
		}
	}))
}

// StartScrolling begins scroll clicks at about scrollsPerSec. GVX UI
// threads contend visibly on the shared window monitor here (§3 measured
// 0.4 % contention scrolling, far above Cedar's 0.01–0.1 %).
func (g *GVX) StartScrolling(scrollsPerSec float64) {
	mean := vclock.Duration(float64(vclock.Second) / scrollsPerSec)
	g.stops = append(g.stops, generate(g.W, mean, func() {
		g.input.Push(inputEvent{kind: "scroll", count: 1})
	}))
}

// Stop halts all generators.
func (g *GVX) Stop() {
	for _, s := range g.stops {
		s()
	}
	g.stops = nil
}

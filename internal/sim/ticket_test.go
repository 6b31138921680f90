package sim_test

import (
	"testing"

	"repro/internal/eventq"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// ticketWorld is one twin of TestTicketsMatchAt: a worker computing in
// 7µs slices, and two higher-priority sessions on one CPU, one served by
// injections and one by timers. Each session blocks between requests,
// so which of an injection and a timer at the same instant runs first
// shows in the order of their wakeups, and whether an injection lands
// before or after a compute completion at its instant shows in where
// the worker is preempted.
type ticketWorld struct {
	w        *sim.World
	sink     *digestSink
	injected int // requests queued for the injection session
	timed    int // requests queued for the timer session
	inj, tmr *sim.Thread

	// The ticketed twin's ordered backlog and its one pump slot.
	box  []ticketEntry
	pump eventq.Timer
}

type ticketEntry struct {
	at     vclock.Time
	ticket uint64
}

func newTicketWorld() *ticketWorld {
	tw := &ticketWorld{sink: newDigestSink()}
	tw.w = sim.NewWorld(sim.Config{
		Seed: 1, CPUs: 1, Trace: tw.sink,
		SwitchCost: -1, TimeoutGranularity: 1,
	})
	tw.w.Spawn("worker", sim.PriorityNormal, func(t *sim.Thread) any {
		for {
			t.Compute(7 * vclock.Microsecond)
		}
	})
	serve := func(queued *int) sim.Proc {
		return func(t *sim.Thread) any {
			for {
				for *queued > 0 {
					*queued--
					t.Compute(vclock.Microsecond)
				}
				t.Block(sim.BlockCV)
			}
		}
	}
	tw.inj = tw.w.Spawn("injected", sim.PriorityHigh, serve(&tw.injected))
	tw.tmr = tw.w.Spawn("timed", sim.PriorityHigh, serve(&tw.timed))
	tw.w.RegisterTimer(&tw.pump, func() {
		tw.box = tw.box[1:]
		tw.inject()
		tw.arm()
	})
	return tw
}

func (tw *ticketWorld) inject() {
	tw.injected++
	tw.w.WakeIfBlocked(tw.inj, nil)
}

func (tw *ticketWorld) timer() {
	tw.timed++
	tw.w.WakeIfBlocked(tw.tmr, nil)
}

// arm arms the pump for the backlog's head under its ticket, unless it
// is armed.
func (tw *ticketWorld) arm() {
	if !tw.pump.Armed() && len(tw.box) > 0 {
		tw.w.ArmTicket(&tw.pump, tw.box[0].at, tw.box[0].ticket)
	}
}

// TestTicketsMatchAt drives two identical worlds through the same
// rounds: one schedules every injection with At, the other takes a
// ticket at the same point and keeps only the backlog's head armed in
// one timer slot.
// Each round puts timers on injection instants both before and after
// the injections are scheduled, and the worker's compute completions,
// scheduled inside earlier and later Runs, fall on them as well. The
// twins must produce the same trace, outcome and event count.
func TestTicketsMatchAt(t *testing.T) {
	const (
		rounds = 30
		round  = 20 * vclock.Microsecond
	)
	twins := [2]*ticketWorld{newTicketWorld(), newTicketWorld()}
	for r := 0; r < rounds; r++ {
		now := vclock.Time(0).Add(vclock.Duration(r) * round)
		for k, tw := range twins {
			tw.w.At(now.Add(5*vclock.Microsecond), tw.timer)
			tw.w.At(now.Add(12*vclock.Microsecond), tw.timer)
			for _, off := range []vclock.Duration{0, 3, 5, 7, 12, 14, 17} {
				at := now.Add(off * vclock.Microsecond)
				if k == 0 {
					tw.w.At(at, tw.inject)
				} else {
					tw.box = append(tw.box, ticketEntry{at, tw.w.Ticket()})
				}
			}
			tw.w.At(now.Add(5*vclock.Microsecond), tw.timer)
			tw.w.At(now.Add(17*vclock.Microsecond), tw.timer)
			tw.arm()
			tw.w.Run(now.Add(round - vclock.Microsecond))
		}
	}
	end := vclock.Time(0).Add(rounds*round + vclock.Millisecond)
	var got [2]traceDigest
	var events [2]int64
	for k, tw := range twins {
		got[k] = digestWorld(tw.w, tw.sink, end, nil)
		events[k] = tw.w.EventsProcessed()
	}
	if len(twins[1].box) != 0 {
		t.Fatalf("ticketed twin left %d injections undelivered", len(twins[1].box))
	}
	if got[0] != got[1] || events[0] != events[1] {
		t.Fatalf("At twin %+v after %d events, ticketed twin %+v after %d events",
			got[0], events[0], got[1], events[1])
	}
	if want := int64(rounds * 7); events[0] < want {
		t.Fatalf("%d events, want at least the %d injections", events[0], want)
	}
}

package stats

import (
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Collector computes an Analysis online, as events stream in, without
// retaining them. It implements trace.Sink, so it can be attached
// directly to a sim.World (possibly Tee'd with a Buffer) and a multi-hour
// virtual soak stays memory-flat.
//
// Usage: create with NewCollector(from, to), attach as the world's trace
// sink, run, then call Finish(now) once. Events before `from` feed state
// reconstruction only (thread priorities, live counts, CPU occupancy), so
// a warm-up period is excluded exactly as with Analyze.
type Collector struct {
	a        *Analysis
	from, to vclock.Time

	mls     idSet
	cvs     idSet
	live    int
	gen     map[int32]int
	born    map[int32]vclock.Time
	lifeSum vclock.Duration

	cpu      []occupancy // indexed by the switch record's CPU
	finished bool
}

type occupancy struct {
	thread int32
	since  vclock.Time
}

// NewCollector creates a collector measuring the window [from, to]. Pass
// to = vclock.Never to measure until Finish.
func NewCollector(from, to vclock.Time) *Collector {
	return &Collector{
		a: &Analysis{
			From:             from,
			To:               to,
			Intervals:        NewIntervalHistogram(),
			ExecByThread:     make(map[int32]vclock.Duration),
			PriorityOfThread: make(map[int32]int),
			ForkGenerations:  make([]int, 0, 4),
		},
		from: from,
		to:   to,
		gen:  make(map[int32]int),
		born: make(map[int32]vclock.Time),
	}
}

// idSetDenseLimit bounds the IDs an idSet keeps in its bitset; larger
// ones spill to its map, so a hostile replay with huge IDs cannot
// balloon the bitset (at most 128 KB).
const idSetDenseLimit = 1 << 20

// idSet counts distinct monitor or CV IDs. The simulator allocates both
// as small sequential integers, so IDs in [0, idSetDenseLimit) set a bit
// in a dense bitset instead of a map entry; any other ID goes to the map.
// The zero value is an empty set.
type idSet struct {
	bits   []uint64
	sparse map[int64]struct{}
	n      int // distinct IDs added
}

func (s *idSet) add(id int64) {
	if uint64(id) < idSetDenseLimit {
		w := int(id >> 6)
		if w >= len(s.bits) {
			// At least double, as profile's idTable does.
			grown := make([]uint64, min(max(w+1, 2*len(s.bits)), idSetDenseLimit/64))
			copy(grown, s.bits)
			s.bits = grown
		}
		if m := uint64(1) << (id & 63); s.bits[w]&m == 0 {
			s.bits[w] |= m
			s.n++
		}
		return
	}
	if _, ok := s.sparse[id]; !ok {
		if s.sparse == nil {
			s.sparse = make(map[int64]struct{})
		}
		s.sparse[id] = struct{}{}
		s.n++
	}
}

func (c *Collector) inWindow(t vclock.Time) bool { return t >= c.from && t <= c.to }

func (c *Collector) closeInterval(o *occupancy, now vclock.Time) {
	if o.thread == trace.NoThread {
		o.since = now
		return
	}
	lo, hi := o.since, now
	if lo < c.from {
		lo = c.from
	}
	if hi > c.to {
		hi = c.to
	}
	if hi > lo {
		d := hi.Sub(lo)
		c.a.Intervals.Add(now.Sub(o.since)) // full interval length for the distribution
		c.a.ExecByThread[o.thread] += d
		if p, ok := c.a.PriorityOfThread[o.thread]; ok && p >= 1 && p < len(c.a.ExecByPriority) {
			c.a.ExecByPriority[p] += d
		}
	}
	o.since = now
}

// Flush implements trace.Sink; the collector aggregates in memory, so
// there is nothing to push.
func (c *Collector) Flush() error { return nil }

// Record implements trace.Sink.
func (c *Collector) Record(ev trace.Event) {
	if c.finished {
		return
	}
	a := c.a
	switch ev.Kind {
	case trace.KindFork:
		child := int32(ev.Arg)
		a.PriorityOfThread[child] = int(ev.Aux)
		c.born[child] = ev.Time
		g := 0
		if ev.Thread != trace.NoThread {
			g = c.gen[ev.Thread] + 1
		}
		c.gen[child] = g
		c.live++
		if c.live > a.MaxLive {
			a.MaxLive = c.live
		}
		if c.inWindow(ev.Time) {
			a.Forks++
			for len(a.ForkGenerations) <= g {
				a.ForkGenerations = append(a.ForkGenerations, 0)
			}
			a.ForkGenerations[g]++
		}
	case trace.KindExit:
		c.live--
		if birth, ok := c.born[ev.Thread]; ok {
			life := ev.Time.Sub(birth)
			a.ExitedCount++
			c.lifeSum += life
			if life < vclock.Second {
				a.TransientCount++
			}
			if life > a.LongestExitedLife {
				a.LongestExitedLife = life
			}
			delete(c.born, ev.Thread)
		}
		if c.inWindow(ev.Time) {
			a.Exits++
		}
	case trace.KindSetPriority:
		a.PriorityOfThread[ev.Thread] = int(ev.Aux)
	case trace.KindSwitch:
		if ev.Aux < 0 || ev.Aux >= trace.MaxCPUs {
			break
		}
		for int64(len(c.cpu)) <= ev.Aux {
			c.cpu = append(c.cpu, occupancy{thread: trace.NoThread, since: ev.Time})
		}
		o := &c.cpu[ev.Aux]
		c.closeInterval(o, ev.Time)
		o.thread = ev.Thread
		if ev.Thread == trace.NoThread {
			break
		}
		// A yielding thread dispatched here left any other CPU it still
		// occupies with no switch record: that CPU is idle from now on.
		for i := range c.cpu {
			if other := &c.cpu[i]; other != o && other.thread == ev.Thread {
				c.closeInterval(other, ev.Time)
				other.thread = trace.NoThread
			}
		}
		if c.inWindow(ev.Time) {
			a.Switches++
		}
	case trace.KindYield:
		if c.inWindow(ev.Time) {
			a.Yields++
		}
	case trace.KindWait:
		if c.inWindow(ev.Time) {
			c.cvs.add(ev.Arg) // Table 3: distinct CVs waited on in-window
			a.Waits++
		}
	case trace.KindWaitDone:
		if c.inWindow(ev.Time) {
			a.WaitDones++
			if ev.Aux == 1 {
				a.WaitTimeouts++
			}
		}
	case trace.KindMLEnter:
		if c.inWindow(ev.Time) {
			c.mls.add(ev.Arg) // Table 3: distinct monitors entered in-window
			a.MLEnters++
			if ev.Aux == 1 {
				a.MLContended++
			}
		}
	case trace.KindNotify:
		if c.inWindow(ev.Time) {
			a.Notifies++
			if ev.Aux == 0 {
				a.NotifyMisses++
			}
		}
	case trace.KindBroadcast:
		if c.inWindow(ev.Time) {
			a.Broadcasts++
		}
	}
}

// Finish closes the measurement at `now` and returns the Analysis. The
// collector ignores further events. If the window end was Never, it
// becomes now.
func (c *Collector) Finish(now vclock.Time) *Analysis {
	if c.finished {
		return c.a
	}
	c.finished = true
	if c.to == vclock.Never || c.to > now {
		c.to = now
		if c.to < c.from {
			c.to = c.from
		}
		c.a.To = c.to
	}
	for i := range c.cpu {
		c.closeInterval(&c.cpu[i], c.to)
	}
	c.a.DistinctMLs = c.mls.n
	c.a.DistinctCVs = c.cvs.n
	c.a.EternalCount = len(c.born)
	if c.a.ExitedCount > 0 {
		c.a.MeanExitedLifetime = c.lifeSum / vclock.Duration(c.a.ExitedCount)
	}
	return c.a
}

package workload

import (
	"fmt"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vclock"
	"repro/internal/workload/spec"
)

// This file holds the W-series open-loop load shapes' shared pieces:
// server-scale thread populations driven by arrivals that keep their own
// schedule whether or not the system keeps up, so queueing delay — not
// just service time — shows up in the latency percentiles. Unlike the
// closed-loop Cedar/GVX activities (a fixed population of eternal
// threads pacing themselves), these are compiled from specs (build.go):
//
//	W1 (echo)     — a multi-user echo server: one session thread per
//	                user, arrivals fanned uniformly across sessions.
//	W2 (pipeline) — slack-process pipelines (§5.2): stages at descending
//	                priority connected by monitor-based bounded buffers,
//	                so downstream stages batch work the way the paper's
//	                slack process batches screen updates.
//	W3 (mixed)    — interactive echo sessions at high priority over a
//	                pool of low-priority batch compute loops (§6.2's
//	                priority structure under load).

// LoadStats summarizes one open-loop load run. All times are virtual.
type LoadStats struct {
	// Offered and Completed count requests injected and served.
	Offered   int64
	Completed int64
	// Threads is the number of worker threads the workload created.
	Threads int
	// Window is the virtual time from the first injection to the last
	// completion (or the run horizon, if the system never drained).
	Window vclock.Duration
	// Latency records per-request end-to-end latency (arrival to
	// completion, queueing included).
	Latency stats.LatencyRecorder
}

// Throughput returns completed requests per virtual second, or 0 for an
// empty window.
func (s *LoadStats) Throughput() float64 {
	if s.Window <= 0 {
		return 0
	}
	return float64(s.Completed) / s.Window.Seconds()
}

// String renders the stats one one line, percentiles included.
func (s *LoadStats) String() string {
	return fmt.Sprintf("offered=%d completed=%d threads=%d window=%s rate=%.0f/s lat[%s]",
		s.Offered, s.Completed, s.Threads, s.Window, s.Throughput(), s.Latency.String())
}

// loadBuffer is a monitor-based bounded buffer of arrival timestamps —
// the §4.2 serializer paradigm under a cap, built from one monitor and
// its two CVs exactly as the paper's systems built theirs.
type loadBuffer struct {
	m        *monitor.Monitor
	notEmpty *monitor.Cond
	notFull  *monitor.Cond
	items    []vclock.Time
	cap      int
	closed   bool
}

func newLoadBuffer(w *sim.World, name string, capacity int) *loadBuffer {
	b := &loadBuffer{m: monitor.New(w, name), cap: capacity}
	b.notEmpty = b.m.NewCond(name + ".notEmpty")
	b.notFull = b.m.NewCond(name + ".notFull")
	return b
}

func (b *loadBuffer) put(t *sim.Thread, v vclock.Time) {
	b.m.Enter(t)
	for len(b.items) >= b.cap {
		b.notFull.Wait(t)
	}
	b.items = append(b.items, v)
	b.notEmpty.Notify(t)
	b.m.Exit(t)
}

func (b *loadBuffer) get(t *sim.Thread) (vclock.Time, bool) {
	b.m.Enter(t)
	for len(b.items) == 0 && !b.closed {
		b.notEmpty.Wait(t)
	}
	if len(b.items) == 0 {
		b.m.Exit(t)
		return 0, false
	}
	v := b.items[0]
	b.items = b.items[1:]
	b.notFull.Notify(t)
	b.m.Exit(t)
	return v, true
}

func (b *loadBuffer) close(t *sim.Thread) {
	b.m.Enter(t)
	b.closed = true
	b.notEmpty.Broadcast(t)
	b.m.Exit(t)
}

// Pipeline is the W2 workload instance: Pipelines chains of Stages
// threads. Stage 0 of every chain is one session of a Server pool (the
// arrivals' target); later stages hand off through loadBuffers.
type Pipeline struct {
	Stats    LoadStats
	src      *Server
	cost     vclock.Duration
	lastDone vclock.Time
}

// stagePriority maps a stage index to its descending priority.
func stagePriority(i int) sim.Priority {
	p := sim.PriorityHigh - sim.Priority(i)
	if p < sim.PriorityBackground {
		p = sim.PriorityBackground
	}
	return p
}

// startPipeline spawns the stage chains, chain by chain; p must have
// passed spec.Check. Stage priorities descend from PriorityHigh toward
// PriorityBackground along the chain — the §5.2 slack-process shape,
// where the consumer runs below its producer so work batches up between
// dispatches.
func startPipeline(w *sim.World, p *spec.Pipeline) *Pipeline {
	buffer := p.Buffer
	if buffer < 1 {
		buffer = 8
	}
	pl := &Pipeline{src: newServer(w, p.Pipelines), cost: vclock.Duration(p.StageCostUS)}
	if pl.cost <= 0 {
		pl.cost = 10 * vclock.Microsecond
	}
	pl.Stats.Threads = p.Pipelines * p.Stages
	for i := 0; i < p.Pipelines; i++ {
		bufs := make([]*loadBuffer, p.Stages-1)
		for j := range bufs {
			bufs[j] = newLoadBuffer(w, fmt.Sprintf("pipe-%d-buf-%d", i, j), buffer)
		}
		pl.src.addSession(fmt.Sprintf("pipe-%d-stage-0", i), stagePriority(0), bufs[0])
		for j := 1; j < p.Stages; j++ {
			var out *loadBuffer
			if j < p.Stages-1 {
				out = bufs[j]
			}
			w.Spawn(fmt.Sprintf("pipe-%d-stage-%d", i, j), stagePriority(j), pl.stageBody(bufs[j-1], out))
		}
	}
	return pl
}

// stageBody computes over items from in; a nil out marks the final stage,
// which completes requests and records their end-to-end latency.
func (pl *Pipeline) stageBody(in, out *loadBuffer) sim.Proc {
	return func(t *sim.Thread) any {
		for {
			v, ok := in.get(t)
			if !ok {
				if out != nil {
					out.close(t)
				}
				return nil
			}
			t.Compute(pl.cost)
			if out != nil {
				out.put(t, v)
				continue
			}
			pl.Stats.Completed++
			pl.Stats.Latency.Add(t.Now().Sub(v))
			pl.lastDone = t.Now()
		}
	}
}

// Finish stamps the offered count and measurement window after the
// driving Run returns.
func (pl *Pipeline) Finish() *LoadStats {
	pl.Stats.Offered = pl.src.Stats.Offered
	if pl.Stats.Completed > 0 {
		pl.Stats.Window = pl.lastDone.Sub(pl.src.First())
	}
	return &pl.Stats
}

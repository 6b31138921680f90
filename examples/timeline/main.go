// Timeline: see the §5.2 bug with your own eyes. The paper's authors
// found it by staring at microscopic event histories ("even after a year
// of looking at the same 100 millisecond event histories we are seeing
// new things in them"); this example renders exactly that view for the
// X-server pipeline under the broken plain YIELD and under
// YieldButNotToMe.
//
// In the YIELD timeline the buffer thread (high priority) and the imaging
// thread alternate in a tight ping-pong — every paint request makes a
// full round trip, nothing merges. In the YieldButNotToMe timeline the
// imaging thread owns long runs of the processor and the buffer thread
// wakes once per quantum to flush a merged batch.
package main

import (
	"fmt"

	"repro/internal/paradigm"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/vclock"
	"repro/internal/xwin"
)

func show(strategy paradigm.WaitStrategy) {
	profiler := profile.New(1)
	profiler.KeepSpans = true
	w := sim.NewWorld(sim.Config{Seed: 1, Trace: profiler})
	defer w.Shutdown()
	reg := paradigm.NewRegistry()
	srv := xwin.NewServer(w)
	cfg := xwin.DefaultPipelineConfig()
	cfg.Strategy = strategy
	p := xwin.StartPipeline(w, reg, srv, cfg)
	w.Run(vclock.Time(500 * vclock.Millisecond))

	names := make(map[int32]string)
	for _, th := range w.Threads() {
		names[th.ID()] = th.Name()
	}
	prof := profiler.Finish(w.Now())
	prof.ApplyNames(names)
	tl := profile.Timeline{
		From:  vclock.Time(200 * vclock.Millisecond),
		To:    vclock.Time(320 * vclock.Millisecond),
		Width: 96,
	}
	fmt.Printf("=== %s ===  (flushes so far: %d, merge ratio %.2f)\n",
		strategy, srv.Flushes(), p.MergeRatio())
	chart, err := tl.Render(prof)
	if err != nil {
		panic(err)
	}
	fmt.Print(chart)
	fmt.Println()
}

func main() {
	show(paradigm.SlackYield)
	show(paradigm.SlackYieldButNotToMe)
	fmt.Println(`the paper: "Most of the time the image thread is the thread favored with the`)
	fmt.Println(`extra cycles and there is a big improvement in the system's perceived performance."`)
}

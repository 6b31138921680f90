package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestFacadeEndToEnd drives a world, a monitor and a CV through the
// facade, then checks the captured trace with the stats package.
func TestFacadeEndToEnd(t *testing.T) {
	var buf trace.Buffer
	w := core.NewWorld(core.WorldConfig{Seed: 42, Trace: &buf})
	defer w.Shutdown()

	mu := core.NewMonitor(w, "queue")
	nonEmpty := mu.NewCond("non-empty")
	var queue []string
	var got string

	w.Spawn("consumer", core.PriorityNormal, func(th *core.Thread) any {
		mu.Enter(th)
		for len(queue) == 0 {
			nonEmpty.Wait(th)
		}
		got = queue[0]
		queue = queue[1:]
		mu.Exit(th)
		return nil
	})
	// Spawned second at equal priority: runs after the consumer waits.
	w.Spawn("producer", core.PriorityNormal, func(th *core.Thread) any {
		th.Compute(10 * core.Millisecond)
		mu.Enter(th)
		queue = append(queue, "payload")
		nonEmpty.Notify(th)
		mu.Exit(th)
		return nil
	})
	w.Run(core.At(core.Second))

	if got != "payload" {
		t.Fatalf("consumer got %q", got)
	}
	a := stats.Analyze(buf.Events, 0, core.At(core.Second))
	if a.MLEnters < 3 || a.WaitDones != 1 || a.Notifies != 1 {
		t.Fatalf("analysis wrong: enters=%d dones=%d notifies=%d", a.MLEnters, a.WaitDones, a.Notifies)
	}
}

func TestRegistryFacade(t *testing.T) {
	reg := core.NewRegistry()
	if reg.Total() != 0 {
		t.Fatal("fresh registry should be empty")
	}
}

package sim

import (
	"testing"

	"repro/internal/vclock"
)

// drawN burns n draws from the world's own stream and returns them.
func drawN(w *World, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = w.Rand().Int63()
	}
	return out
}

// DeriveRand must hand out streams that are (a) reproducible for the
// same (seed, name), (b) distinct across names and seeds, and (c)
// isolated: draws from a derived stream never move the world's own
// stream, and vice versa.
func TestDeriveRandIndependence(t *testing.T) {
	w := NewWorld(Config{Seed: 5})
	defer w.Shutdown()

	// Same (seed, name) twice: identical streams.
	a, b := w.DeriveRand("load"), w.DeriveRand("load")
	for i := 0; i < 16; i++ {
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("draw %d: same-name streams diverged: %d vs %d", i, x, y)
		}
	}

	// Different names: different streams.
	c, d := w.DeriveRand("load"), w.DeriveRand("router")
	same := true
	for i := 0; i < 8; i++ {
		if c.Int63() != d.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal(`DeriveRand("load") and DeriveRand("router") produced identical streams`)
	}

	// Different seeds: different streams under the same name.
	w2 := NewWorld(Config{Seed: 6})
	defer w2.Shutdown()
	e, f := w.DeriveRand("load"), w2.DeriveRand("load")
	same = true
	for i := 0; i < 8; i++ {
		if e.Int63() != f.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical derived streams")
	}

	// Isolation: burning a derived stream leaves the world stream exactly
	// where an untouched world's stream would be.
	clean := NewWorld(Config{Seed: 5})
	defer clean.Shutdown()
	burn := w.DeriveRand("burn")
	for i := 0; i < 1000; i++ {
		burn.Int63()
	}
	got, want := drawN(w, 8), drawN(clean, 8)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("world stream perturbed by derived draws: draw %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// The cross-instance regression the cluster depends on: one instance's
// simulated output must be bitwise independent of how many sibling
// instances exist and how much randomness those siblings consume.
func TestSiblingDrawsDoNotPerturbInstance(t *testing.T) {
	runInstance := func(siblings int) (vclock.Time, int64, []int64) {
		w := NewWorld(Config{Seed: 11, SystemDaemon: true})
		defer w.Shutdown()
		// Sibling instances with their own worlds and derived streams,
		// drawing interleaved with the instance's run.
		var sibs []*World
		for i := 0; i < siblings; i++ {
			s := NewWorld(Config{Seed: 11, SystemDaemon: true})
			defer s.Shutdown()
			rng := s.DeriveRand("sibling-load")
			for j := 0; j < 100*(i+1); j++ {
				rng.Int63()
			}
			sibs = append(sibs, s)
		}
		// A little in-world activity that consumes the world's own stream
		// (the SystemDaemon draws victims) around a derived-stream user.
		load := w.DeriveRand("load")
		var sum int64
		w.Spawn("worker", PriorityNormal, func(th *Thread) any {
			for i := 0; i < 50; i++ {
				th.Compute(vclock.Duration(1+load.Int63n(100)) * vclock.Microsecond)
				th.Sleep(vclock.Millisecond)
			}
			return nil
		})
		w.Run(vclock.Time(0).Add(2 * vclock.Second))
		for _, s := range sibs {
			s.Run(vclock.Time(0).Add(vclock.Second))
		}
		return w.Now(), w.EventsProcessed(), append(drawN(w, 4), sum)
	}

	nowA, evA, tailA := runInstance(0)
	nowB, evB, tailB := runInstance(3)
	if nowA != nowB || evA != evB {
		t.Fatalf("instance diverged with siblings present: clock %v vs %v, events %d vs %d", nowA, nowB, evA, evB)
	}
	for i := range tailA {
		if tailA[i] != tailB[i] {
			t.Fatalf("instance RNG state diverged with siblings present: %v vs %v", tailA, tailB)
		}
	}
}

// The thread arena must hand out stable, distinct slots across slab
// growth, and every slot must behave exactly like an individually
// allocated Thread.
func TestThreadArenaBulkSpawn(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	defer w.Shutdown()
	const n = 1000 // spans several doubled slabs
	ran := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		w.Spawn("bulk", PriorityNormal, func(th *Thread) any {
			th.Compute(vclock.Microsecond)
			ran[i] = true
			return nil
		})
	}
	if got := w.LiveThreads(); got != n {
		t.Fatalf("live threads = %d, want %d", got, n)
	}
	seen := make(map[*Thread]bool)
	ids := make(map[int32]bool)
	for _, th := range w.Threads() {
		if seen[th] {
			t.Fatalf("arena handed out thread %v twice", th)
		}
		seen[th] = true
		if ids[th.ID()] {
			t.Fatalf("duplicate thread id %d", th.ID())
		}
		ids[th.ID()] = true
	}
	if len(seen) != n {
		t.Fatalf("thread table has %d entries, want %d", len(seen), n)
	}
	if got := w.Run(vclock.Time(0).Add(10 * vclock.Second)); got != OutcomeQuiescent {
		t.Fatalf("bulk run ended %v, want quiescent", got)
	}
	for i, ok := range ran {
		if !ok {
			t.Fatalf("thread %d never ran", i)
		}
	}
}

package profile_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/workload"
)

func ms(n int64) vclock.Duration { return vclock.Duration(n) * vclock.Millisecond }

// fixtureWorld runs a 3-thread/1-CPU scenario whose timeline is simple
// enough to compute by hand:
//
//	t=0     c (high) dispatched; a, b (normal) ready
//	t=4ms   c sleeps 10ms; a runs its 9ms compute
//	t=13ms  a exits; b runs
//	t=14ms  c wakes and preempts b; c runs 2ms
//	t=16ms  c exits; b resumes
//	t=21ms  b exits; world quiescent
//
// It also returns the world's event stream.
func fixtureWorld(t *testing.T) (*profile.Profile, map[string]*profile.ThreadProfile, []trace.Event) {
	t.Helper()
	p := profile.New(1)
	p.KeepSpans = true
	var buf trace.Buffer
	w := sim.NewWorld(sim.Config{
		CPUs:               1,
		SwitchCost:         -1, // exact timings
		TimeoutGranularity: vclock.Microsecond,
		Hooks: sim.Hooks{
			OnWorld: func(w *sim.World) trace.Sink { return trace.Tee(p, &buf) },
		},
	})
	defer w.Shutdown()

	w.Spawn("a", sim.PriorityNormal, func(t *sim.Thread) any {
		t.Compute(ms(9))
		return nil
	})
	w.Spawn("b", sim.PriorityNormal, func(t *sim.Thread) any {
		t.Compute(ms(6))
		return nil
	})
	w.Spawn("c", sim.PriorityHigh, func(t *sim.Thread) any {
		t.Compute(ms(4))
		t.Sleep(ms(10))
		t.Compute(ms(2))
		return nil
	})
	w.Run(vclock.Time(0).Add(ms(30)))

	prof := p.Finish(w.Now())
	names := make(map[int32]string)
	for _, th := range w.Threads() {
		names[th.ID()] = th.Name()
	}
	prof.ApplyNames(names)

	byName := make(map[string]*profile.ThreadProfile)
	for _, th := range prof.Threads {
		byName[th.Name] = th
	}
	return prof, byName, buf.Events
}

func TestHandComputedFixture(t *testing.T) {
	prof, th, _ := fixtureWorld(t)

	if got, want := prof.End, vclock.Time(0).Add(ms(21)); got != want {
		t.Fatalf("End = %v, want %v", got, want)
	}
	if res := prof.Residue(); res != 0 {
		t.Fatalf("Residue = %v, want 0", res)
	}

	checks := []struct {
		name     string
		running  vclock.Duration
		ready    vclock.Duration
		sleep    vclock.Duration
		switches int64
		preempts int64
		died     vclock.Time
	}{
		{"a", ms(9), ms(4), 0, 1, 0, vclock.Time(0).Add(ms(13))},
		{"b", ms(6), ms(15), 0, 2, 1, vclock.Time(0).Add(ms(21))},
		{"c", ms(6), 0, ms(10), 2, 0, vclock.Time(0).Add(ms(16))},
	}
	for _, c := range checks {
		p := th[c.name]
		if p == nil {
			t.Fatalf("thread %q missing from profile", c.name)
		}
		if p.Running() != c.running {
			t.Errorf("%s: running = %v, want %v", c.name, p.Running(), c.running)
		}
		if p.Ready() != c.ready {
			t.Errorf("%s: ready = %v, want %v", c.name, p.Ready(), c.ready)
		}
		if p.Durations[profile.StateSleep] != c.sleep {
			t.Errorf("%s: sleep = %v, want %v", c.name, p.Durations[profile.StateSleep], c.sleep)
		}
		if p.Switches != c.switches {
			t.Errorf("%s: switches = %d, want %d", c.name, p.Switches, c.switches)
		}
		if p.Preemptions != c.preempts {
			t.Errorf("%s: preemptions = %d, want %d", c.name, p.Preemptions, c.preempts)
		}
		if p.Died != c.died {
			t.Errorf("%s: died = %v, want %v", c.name, p.Died, c.died)
		}
		// Per-thread identity: non-dead states sum to the lifetime.
		var sum vclock.Duration
		for s := profile.StateNew; s < profile.StateDead; s++ {
			sum += p.Durations[s]
		}
		if sum != p.Lifetime() {
			t.Errorf("%s: state sum %v != lifetime %v", c.name, sum, p.Lifetime())
		}
	}

	// The high-priority thread always preempted immediately: no inversion.
	if prof.Inversion.Episodes != 0 {
		t.Errorf("inversion episodes = %d, want 0", prof.Inversion.Episodes)
	}

	// Summary totals must reproduce the accounting identity.
	sum := profile.Summarize(prof)
	if sum.Running != ms(21) || sum.Idle != 0 || sum.Residue != 0 {
		t.Errorf("summary running/idle/residue = %v/%v/%v, want 21ms/0/0",
			sum.Running, sum.Idle, sum.Residue)
	}
	if sum.Preemptions != 1 {
		t.Errorf("summary preemptions = %d, want 1", sum.Preemptions)
	}
}

func TestChromeTraceFixture(t *testing.T) {
	prof, _, _ := fixtureWorld(t)
	var buf bytes.Buffer
	if err := profile.WriteChromeTrace(&buf, prof); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("chrome trace is not valid JSON:\n%s", buf.String())
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("chrome trace is not a JSON array of events: %v", err)
	}
	var complete, meta int
	for _, ev := range evs {
		switch ev["ph"] {
		case "X":
			complete++
			if _, ok := ev["dur"]; !ok {
				t.Errorf("complete event without dur: %v", ev)
			}
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %v", ev["ph"])
		}
	}
	if complete == 0 || meta == 0 {
		t.Fatalf("want both complete and metadata events, got %d/%d", complete, meta)
	}
}

func TestChromeTraceNeedsSpans(t *testing.T) {
	prof, _ := func() (*profile.Profile, map[string]*profile.ThreadProfile) {
		p := profile.New(1)
		w := sim.NewWorld(sim.Config{
			CPUs:       1,
			SwitchCost: -1,
			Hooks:      sim.Hooks{OnWorld: func(w *sim.World) trace.Sink { return p }},
		})
		defer w.Shutdown()
		w.Spawn("a", sim.PriorityNormal, func(t *sim.Thread) any {
			t.Compute(ms(1))
			return nil
		})
		w.Run(vclock.Time(0).Add(ms(5)))
		return p.Finish(w.Now()), nil
	}()
	if err := profile.WriteChromeTrace(&bytes.Buffer{}, prof); err != profile.ErrNoSpans {
		t.Fatalf("err = %v, want ErrNoSpans", err)
	}
}

// profileBenchmark profiles a real workload via the Set/OnWorld seam.
func profileBenchmark(t *testing.T, cpus int) []*profile.Profile {
	t.Helper()
	set := profile.NewSet()
	rc := workload.RunConfig{
		Warmup: 0,
		Window: 2 * vclock.Second,
		Seed:   1,
		CPUs:   cpus,
		Hooks:  sim.Hooks{OnWorld: set.Attach},
	}
	b := workload.CedarBenchmarks()[0]
	workload.Run(b, rc)
	return set.Finish()
}

func TestRealWorkloadExactAccounting(t *testing.T) {
	for _, cpus := range []int{1, 2, 4} {
		profs := profileBenchmark(t, cpus)
		if len(profs) != 1 {
			t.Fatalf("cpus=%d: %d profiles, want 1", cpus, len(profs))
		}
		p := profs[0]
		if res := p.Residue(); res != 0 {
			t.Errorf("cpus=%d: residue = %v, want 0 (running %v, idle %v, window %v)",
				cpus, res, p.TotalRunning(), p.TotalIdle(), p.Window())
		}
		for _, th := range p.Threads {
			var sum vclock.Duration
			for s := profile.StateNew; s < profile.StateDead; s++ {
				sum += th.Durations[s]
			}
			if sum != th.Lifetime() {
				t.Errorf("cpus=%d %s: state sum %v != lifetime %v",
					cpus, th.Label(), sum, th.Lifetime())
			}
		}
		if cpus != len(p.CPUIdle) {
			t.Errorf("cpus=%d: profile tracked %d CPUs", cpus, len(p.CPUIdle))
		}
	}
}

func TestProfileDeterministic(t *testing.T) {
	a := profile.NewReport(profileBenchmark(t, 2)[0]).String()
	b := profile.NewReport(profileBenchmark(t, 2)[0]).String()
	if a != b {
		t.Fatalf("profile reports differ across identical runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty profile report")
	}
}

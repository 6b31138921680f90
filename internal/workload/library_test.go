package workload

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// TestLibraryBuildsOnFirstTouch checks that a library builds no monitor
// up front, reserves its IDs so later monitors keep theirs, and builds
// monitor i on first entry under the ID and name an up-front build gave
// it: ID base+1+i, name <lib>-<i>.
func TestLibraryBuildsOnFirstTouch(t *testing.T) {
	var buf trace.Buffer
	w := sim.NewWorld(sim.Config{Trace: &buf, SwitchCost: -1, TimeoutGranularity: 1})
	defer w.Shutdown()
	lib := NewLibrary(w, "lib", 10)
	if lib.mons != nil {
		t.Fatalf("NewLibrary built %d monitor slots, want none", len(lib.mons))
	}
	if m := monitor.New(w, "after"); m.ID() != 11 {
		t.Fatalf("first monitor after a 10-monitor library has ID %d, want 11", m.ID())
	}
	touched := []int{7, 0, 9, 7}
	w.Spawn("t", sim.PriorityNormal, func(t *sim.Thread) any {
		for _, i := range touched {
			lib.TouchOne(t, i, vclock.Microsecond)
		}
		return nil
	})
	w.Run(vclock.Time(vclock.Second))

	var enters []int64
	for _, ev := range buf.Events {
		if ev.Kind == trace.KindMLEnter {
			enters = append(enters, ev.Arg)
		}
	}
	if fmt.Sprint(enters) != "[8 1 10 8]" {
		t.Errorf("MLEnter monitor IDs = %v, want [8 1 10 8] (index+1)", enters)
	}
	for i, m := range lib.mons {
		switch i {
		case 0, 7, 9:
			if m == nil {
				t.Fatalf("touched monitor %d not built", i)
			}
			if m.ID() != int64(i+1) || m.Name() != fmt.Sprintf("lib-%d", i) {
				t.Errorf("monitor %d: ID %d name %q, want ID %d name %q", i, m.ID(), m.Name(), i+1, fmt.Sprintf("lib-%d", i))
			}
		default:
			if m != nil {
				t.Errorf("untouched monitor %d was built", i)
			}
		}
	}

	// A Cedar-sized library is one object today (the Library); the pin
	// allows two, so building the pool up front cannot creep back.
	if n := testing.AllocsPerRun(20, func() { NewLibrary(w, "cedar-lib", 3400) }); n > 2 {
		t.Errorf("NewLibrary(3400) allocates %v objects, want at most 2", n)
	}
}

// TestLibraryBounds checks that every way into the library — a region
// touch or a single-monitor touch — rejects a region or index outside
// the pool with a panic that names it, never a bare runtime index error.
func TestLibraryBounds(t *testing.T) {
	if (Region{2, 7}).Span() != 5 {
		t.Fatal("span wrong")
	}
	cases := []struct {
		name  string
		touch func(*Library, *sim.Thread)
		want  string
	}{
		{"TouchOne below", func(l *Library, t *sim.Thread) { l.TouchOne(t, -1, 0) }, "workload: library index -1 outside [0,10)"},
		{"TouchOne above", func(l *Library, t *sim.Thread) { l.TouchOne(t, 10, 0) }, "workload: library index 10 outside [0,10)"},
		{"TouchOneIO above", func(l *Library, t *sim.Thread) { l.TouchOneIO(t, 12, 0, vclock.Microsecond) }, "workload: library index 12 outside [0,10)"},
		{"Touch past end", func(l *Library, t *sim.Thread) { l.Touch(t, Region{20, 30}, 1) }, "workload: bad region [20,30) of 10"},
		{"Touch straddling end", func(l *Library, t *sim.Thread) { l.Touch(t, Region{5, 11}, 1) }, "workload: bad region [5,11) of 10"},
		{"Touch empty", func(l *Library, t *sim.Thread) { l.Touch(t, Region{3, 3}, 1) }, "workload: bad region [3,3) of 10"},
		{"Touch negative", func(l *Library, t *sim.Thread) { l.Touch(t, Region{-1, 4}, 1) }, "workload: bad region [-1,4) of 10"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := sim.NewWorld(sim.Config{SwitchCost: -1, TimeoutGranularity: 1})
			defer w.Shutdown()
			lib := NewLibrary(w, "lib", 10)
			if lib.Size() != 10 {
				t.Fatalf("size = %d", lib.Size())
			}
			th := w.Spawn("t", sim.PriorityNormal, func(t *sim.Thread) any {
				lib.Touch(t, Region{0, 10}, 3) // in range: fine
				c.touch(lib, t)
				return nil
			})
			w.Run(vclock.Time(vclock.Second))
			var pe *sim.PanicError
			if !errors.As(th.Err(), &pe) {
				t.Fatalf("err = %v, want a thread panic", th.Err())
			}
			if got := fmt.Sprint(pe.Value); got != c.want {
				t.Errorf("panic %q, want %q", got, c.want)
			}
		})
	}
}

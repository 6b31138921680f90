package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// render concatenates the rendered reports in emit order.
func render(outs []Outcome) string {
	var sb strings.Builder
	for _, o := range outs {
		sb.WriteString(o.Report.String())
	}
	return sb.String()
}

// TestRunAllMatchesSerial: the parallel harness must be byte-identical
// to the serial one for every experiment, across several seeds — the
// acceptance bar for -parallel.
func TestRunAllMatchesSerial(t *testing.T) {
	seeds := []int64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := Config{Quick: true, Seed: seed}
			serial := RunWith(cfg, Options{Parallelism: 1})
			parallel := RunWith(cfg, Options{Parallelism: 4})
			if len(serial) != len(All()) || len(parallel) != len(All()) {
				t.Fatalf("got %d serial / %d parallel outcomes, want %d", len(serial), len(parallel), len(All()))
			}
			if a, b := render(serial), render(parallel); a != b {
				t.Errorf("parallel output differs from serial output for seed %d", seed)
			}
		})
	}
}

// TestRunWithEmitsInOrder: OnResult must stream outcomes in presentation
// order even when workers finish out of order.
func TestRunWithEmitsInOrder(t *testing.T) {
	var want, got []string
	for _, e := range All() {
		want = append(want, e.ID)
	}
	outs := RunWith(Config{Quick: true, Seed: 1}, Options{
		Parallelism: 8,
		OnResult:    func(o Outcome) { got = append(got, o.Report.ID) },
	})
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("emit order %v, want %v", got, want)
	}
	for i, o := range outs {
		if o.Report.ID != want[i] {
			t.Errorf("outcome %d is %s, want %s", i, o.Report.ID, want[i])
		}
	}
}

// TestRunMetricsPopulated: every experiment must report nonzero wall
// time, virtual time, world and event counts — the -json acceptance
// criterion.
func TestRunMetricsPopulated(t *testing.T) {
	for _, o := range RunWith(Config{Quick: true, Seed: 1}, Options{}) {
		m := o.Metrics
		if m.ID == "" || m.Title == "" {
			t.Errorf("metrics missing identity: %+v", m)
		}
		if m.WallTime <= 0 {
			t.Errorf("%s: wall time %v, want > 0", m.ID, m.WallTime)
		}
		if m.VirtualTime <= 0 {
			t.Errorf("%s: virtual time %v, want > 0", m.ID, m.VirtualTime)
		}
		if m.Worlds < 1 {
			t.Errorf("%s: %d worlds, want >= 1", m.ID, m.Worlds)
		}
		if m.Events < 100 {
			t.Errorf("%s: suspiciously few events: %d", m.ID, m.Events)
		}
		if m.EventsPerSec <= 0 || m.VirtualPerWall <= 0 {
			t.Errorf("%s: rates not computed: %+v", m.ID, m)
		}
	}
}

// TestRunWithVerify: verify mode re-runs each experiment concurrently
// and flags only genuinely nondeterministic ones.
func TestRunWithVerify(t *testing.T) {
	cheap := []string{"F5", "F6", "F8", "F9", "F10"}
	var todo []Experiment
	for _, id := range cheap {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		todo = append(todo, e)
	}
	for _, o := range RunWith(Config{Quick: true, Seed: 1}, Options{Parallelism: 2, Verify: true, Experiments: todo}) {
		if !o.Verified {
			t.Errorf("%s: not verified in verify mode", o.Report.ID)
		}
		if o.Mismatch {
			t.Errorf("%s: flagged nondeterministic", o.Report.ID)
		}
	}

	// A deliberately nondeterministic experiment must be caught.
	calls := make(chan int, 2)
	calls <- 1
	calls <- 2
	rigged := Experiment{ID: "X1", Title: "rigged", Run: func(cfg Config) *Report {
		return &Report{ID: "X1", Title: "rigged", Notes: []string{fmt.Sprintf("call %d", <-calls)}}
	}}
	outs := RunWith(Config{}, Options{Verify: true, Experiments: []Experiment{rigged}})
	if len(outs) != 1 || !outs[0].Mismatch {
		t.Errorf("rigged experiment not flagged: %+v", outs)
	}
}

// TestByIDErrorOrder: the unknown-ID error must list IDs in presentation
// order, not lexicographic order ("F1 F10 F11 F12 F2 ...").
func TestByIDErrorOrder(t *testing.T) {
	_, err := ByID("T9")
	if err == nil {
		t.Fatal("expected error")
	}
	var want []string
	for _, e := range All() {
		want = append(want, e.ID)
	}
	if !strings.Contains(err.Error(), strings.Join(want, " ")) {
		t.Errorf("error %q does not list IDs in presentation order %v", err, want)
	}
	if strings.Contains(err.Error(), "F1 F10") {
		t.Errorf("error %q is lexicographically sorted", err)
	}
}

// TestProbeDoesNotChangeOutput: attaching a probe must never perturb an
// experiment's report.
func TestProbeDoesNotChangeOutput(t *testing.T) {
	e, err := ByID("F5")
	if err != nil {
		t.Fatal(err)
	}
	bare := e.Run(Config{Quick: true}).String()
	probed := RunWith(Config{Quick: true}, Options{Experiments: []Experiment{e}})
	if got := probed[0].Report.String(); got != bare {
		t.Error("probe changed the report output")
	}
	if probed[0].Metrics.Events == 0 {
		t.Error("probe observed no events")
	}
}

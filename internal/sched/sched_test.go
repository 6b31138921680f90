package sched

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/vclock"
)

// TestNames: the registry holds exactly the documented policy set, sorted.
func TestNames(t *testing.T) {
	want := []string{"edf", "hybrid", "mlfq", "pcr-rr", "rr", "sjf"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		if Doc(name) == "" {
			t.Errorf("Doc(%q) is empty", name)
		}
	}
	if Doc("nope") != "" {
		t.Errorf("Doc of unknown policy = %q, want empty", Doc("nope"))
	}
}

// TestParseDefault: "pcr-rr" must yield the exact sim.PCRPolicy value —
// the dispatcher skips the Pick/Rotate consultation only for that value,
// which is what keeps an explicit spec's decision count at 0, as with no
// spec at all.
func TestParseDefault(t *testing.T) {
	p, err := Parse("pcr-rr")
	if err != nil {
		t.Fatalf("Parse(pcr-rr): %v", err)
	}
	if p != Default || p != sim.PCRPolicy {
		t.Fatalf("Parse(pcr-rr) is not the PCRPolicy singleton")
	}
}

// TestParseOK: every legal spec shape builds, with params applied.
func TestParseOK(t *testing.T) {
	for _, spec := range []string{
		"rr", "rr:level=5", "rr:quantum=5ms", "rr:level=2,quantum=1ms",
		"edf", "edf:level=6",
		"sjf", "sjf:level=3",
		"mlfq", "mlfq:levels=3,quantum=5ms,age=100ms",
		"hybrid", "hybrid:slice=20ms,share=0.5",
		" rr : level = 5 ", // whitespace tolerated
		"rr:",              // empty param list
	} {
		p, err := Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		if p == nil {
			t.Errorf("Parse(%q) returned nil policy", spec)
		}
	}
}

// TestParseFresh: stateful policies get a fresh instance per call; an
// instance keys internal state by *sim.Thread and must not span worlds.
func TestParseFresh(t *testing.T) {
	a, _ := Parse("mlfq")
	b, _ := Parse("mlfq")
	if a == b {
		t.Fatalf("two Parse(mlfq) calls returned the same instance")
	}
}

// TestParseErrors: every malformed spec fails with a diagnostic that names
// the legal set, so CLIs can emit the text verbatim at exit 2.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"nope", `unknown policy "nope"`},
		{"nope", "edf, hybrid, mlfq, pcr-rr, rr, sjf"}, // legal set listed
		{"", `unknown policy ""`},
		{"rr:level", `malformed param "level"`},
		{"rr:=5", `malformed param`},
		{"rr:level=", `malformed param`},
		{"rr:level=5,level=6", `duplicate param "level"`},
		{"rr:bogus=1", `unknown param "bogus"`},
		{"rr:bogus=1", "have level, quantum"},
		{"pcr-rr:level=5", `unknown param "level"`},
		{"pcr-rr:level=5", "have none"},
		{"rr:level=0", "must be an integer in 1..7"},
		{"rr:level=8", "must be an integer in 1..7"},
		{"rr:level=abc", "must be an integer"},
		{"rr:quantum=0s", "must be a positive duration"},
		{"rr:quantum=-5ms", "must be a positive duration"},
		{"rr:quantum=fast", "must be a positive duration"},
		{"mlfq:levels=1", "must be an integer in 2..6"},
		{"mlfq:levels=7", "must be an integer in 2..6"},
		{"mlfq:age=0s", "must be a positive duration"},
		{"hybrid:share=0", "must be a number in 0.01..0.9"},
		{"hybrid:share=1.5", "must be a number in 0.01..0.9"},
		{"hybrid:share=lots", "must be a number"},
		{"hybrid:slice=xx", "must be a positive duration"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.spec)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", tc.spec, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %q, want substring %q", tc.spec, err, tc.want)
		}
	}
}

// TestMustParse: panics on a bad spec, passes a good one through.
func TestMustParse(t *testing.T) {
	if p := MustParse("rr:level=2"); p == nil {
		t.Fatalf("MustParse returned nil")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("MustParse(bogus) did not panic")
		}
	}()
	MustParse("bogus")
}

// TestInvariantsTable: every policy has an invariant, sorted by policy
// name, and OracleFor maps pcr-rr to the historical oracle name.
func TestInvariantsTable(t *testing.T) {
	invs := Invariants()
	if len(invs) != len(Names()) {
		t.Fatalf("Invariants() has %d entries, want %d", len(invs), len(Names()))
	}
	for i, inv := range invs {
		if inv.Policy != Names()[i] {
			t.Errorf("invariant %d is for %q, want %q", i, inv.Policy, Names()[i])
		}
		if inv.Oracle == "" || inv.Check == nil {
			t.Errorf("invariant for %q is incomplete", inv.Policy)
		}
	}
	if got := OracleFor("pcr-rr"); got != "strict-priority" {
		t.Errorf("OracleFor(pcr-rr) = %q, want strict-priority", got)
	}
	if got := OracleFor("hybrid"); got != "no-starvation:hybrid" {
		t.Errorf("OracleFor(hybrid) = %q", got)
	}
	if got := OracleFor("nope"); got != "" {
		t.Errorf("OracleFor(nope) = %q, want empty", got)
	}
}

// TestDurParamUnits: durations parse in wall-clock syntax and land in
// virtual microseconds.
func TestDurParamUnits(t *testing.T) {
	p, err := Parse("rr:quantum=2ms")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rr := p.(*rrPolicy)
	if rr.quantum != 2*vclock.Millisecond {
		t.Errorf("quantum = %d µs, want %d", rr.quantum, 2*vclock.Millisecond)
	}
}

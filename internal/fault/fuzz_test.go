package fault

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzPlanJSON throws arbitrary bytes at the plan parser. Invariants:
// Parse never panics; every rejection wraps ErrInvalidPlan (callers
// branch on it); an accepted document is exactly one JSON value; and an
// accepted plan survives a marshal → parse round trip, i.e. what Check
// admits, MarshalJSON can express.
func FuzzPlanJSON(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("seed corpus missing: %v (files %v)", err, seeds)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"lost_notify": [{"cv": "("}]}`))
	f.Add([]byte(`{"crash_thread": [{"thread": "x", "at": "15ms"}]}`))
	f.Add([]byte(`{"fork_exhaustion": [{"max": 0, "until": 1}]}`))
	f.Add([]byte(`{"clock_jitter": [{"frac": 2}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{} {"crash_thread":[{"thread":"x("}]} garbage`))
	f.Add([]byte(`{"crash_instance": [{"instance": -1, "at": "400ms", "restart": "250ms"}]}`))
	f.Add([]byte(`{"crash_instance": [{"instance": -2, "at": 0}]}`))
	f.Add([]byte(`{"stall_instance": [{"instance": 1, "from": "100ms"}]}`))
	f.Add([]byte(`{"degrade_instance": [{"instance": 0, "factor": 1, "until": "1s"}]}`))
	f.Add([]byte(`{"degrade_instance": [{"instance": 0, "factor": 8, "from": 0, "until": "1s"}]}`))
	for _, n := range []int{MaxRules, MaxRules + 1} {
		seed, err := json.Marshal(rulesPlan(n))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			if !errors.Is(err, ErrInvalidPlan) {
				t.Fatalf("rejection does not wrap ErrInvalidPlan: %v", err)
			}
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted a document that is not one JSON value: %q", data)
		}
		out, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted plan fails to marshal: %v", err)
		}
		if _, err := Parse(out); err != nil {
			t.Fatalf("round-tripped plan rejected: %v\noriginal: %s\nmarshaled: %s", err, data, out)
		}
	})
}

// TestSeedCorpusValid pins the checked-in corpus as parseable examples —
// they double as documentation of the plan schema.
func TestSeedCorpusValid(t *testing.T) {
	for _, path := range []string{"testdata/r-series.json", "testdata/lost-notify.json", "testdata/d-series.json"} {
		p, err := Load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
		} else if p.Empty() {
			t.Errorf("%s: parsed empty", path)
		}
	}
}

// TestInstanceFaultScope pins the scope contract for the cluster-level
// kinds: they parse and validate as plan JSON, but a single-world
// Injector refuses them by name rather than silently injecting nothing,
// and an old-style unknown kind is still rejected with the kind in the
// message.
func TestInstanceFaultScope(t *testing.T) {
	p, err := Load("testdata/d-series.json")
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasInstanceFaults() || p.HasThreadFaults() {
		t.Fatalf("d-series corpus scope wrong: instance=%v thread=%v",
			p.HasInstanceFaults(), p.HasThreadFaults())
	}
	if _, err := New(p, 1); !errors.Is(err, ErrInvalidPlan) {
		t.Fatalf("single-world New accepted an instance-fault plan: %v", err)
	} else if !strings.Contains(err.Error(), "crash_instance") {
		t.Fatalf("rejection does not name the cluster kinds: %v", err)
	}
	// A typo'd / future kind still fails loudly, naming the field.
	if _, err := Parse([]byte(`{"crash_fleet": [{"at": 1}]}`)); !errors.Is(err, ErrInvalidPlan) ||
		!strings.Contains(err.Error(), "crash_fleet") {
		t.Fatalf("unknown kind rejection = %v, want ErrInvalidPlan naming crash_fleet", err)
	}
	// Semantic validation of the new kinds.
	bad := []Plan{
		{CrashInstance: []CrashInstance{{Instance: -2, At: D(0)}}},
		{CrashInstance: []CrashInstance{{Instance: 0, At: D(-1)}}},
		{StallInstance: []StallInstance{{Instance: 0, From: D(5), Until: D(0)}}},
		{DegradeInstance: []DegradeInstance{{Instance: 0, Factor: 1, Until: D(10)}}},
		{DegradeInstance: []DegradeInstance{{Instance: 0, Factor: 4, From: D(10), Until: D(5)}}},
	}
	for i, plan := range bad {
		if err := plan.Check(); !errors.Is(err, ErrInvalidPlan) {
			t.Errorf("bad instance plan %d accepted (err=%v)", i, err)
		}
	}
}

func TestErrInvalidPlanSentinel(t *testing.T) {
	if _, err := Parse([]byte(`{"bogus_field": 1}`)); !errors.Is(err, ErrInvalidPlan) {
		t.Errorf("unknown field error = %v, want ErrInvalidPlan in chain", err)
	}
	if err := (Plan{ClockJitter: []ClockJitter{{Frac: 2}}}).Check(); !errors.Is(err, ErrInvalidPlan) {
		t.Errorf("semantic error = %v, want ErrInvalidPlan in chain", err)
	}
	if _, err := New(Plan{LostNotify: []LostNotify{{CV: "("}}}, 1); !errors.Is(err, ErrInvalidPlan) {
		t.Errorf("New error = %v, want ErrInvalidPlan in chain", err)
	}
	if _, err := Load("testdata/definitely-missing.json"); errors.Is(err, ErrInvalidPlan) {
		t.Errorf("I/O error %v must NOT claim the plan was invalid", err)
	}
}

package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/vclock"
)

// validCohorts returns a fresh general-form spec that Check accepts;
// the rejection table mutates copies of it.
func validCohorts() *Spec {
	return &Spec{Schema: Schema, Name: "t", Kind: KindCohorts,
		Cohorts: []Cohort{{
			Name: "a", Sessions: 4, Requests: 100,
			Arrival: &Arrival{Process: ProcPoisson, Rate: 1000},
			Service: &Service{Dist: DistConst, MeanUS: 10},
		}},
	}
}

func TestCheckAcceptsValid(t *testing.T) {
	if err := validCohorts().Check(); err != nil {
		t.Fatalf("valid cohorts spec rejected: %v", err)
	}
}

// TestCheckRejects walks the validation surface: every mutation must
// fail, wrap ErrInvalidSpec, and say why.
func TestCheckRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"schema mismatch", func(s *Spec) { s.Schema = 2 }, "schema 2 unsupported"},
		{"missing name", func(s *Spec) { s.Name = "" }, "name is required"},
		{"unknown kind", func(s *Spec) { s.Kind = "batch" }, `unknown kind "batch"`},
		{"negative horizon", func(s *Spec) { s.HorizonUS = -1 }, "horizon_us and start_us must be >= 0"},
		{"unnamed cohort", func(s *Spec) { s.Cohorts[0].Name = "" }, "cohort 0 has no name"},
		{"duplicate cohort name", func(s *Spec) {
			s.Cohorts = append(s.Cohorts, s.Cohorts[0])
		}, `duplicate cohort name "a"`},
		{"unknown priority", func(s *Spec) { s.Cohorts[0].Priority = "urgent" }, `unknown priority "urgent"`},
		{"negative slo", func(s *Spec) { s.Cohorts[0].SLOUS = -1 }, "slo_us must be >= 0"},
		{"zero sessions", func(s *Spec) { s.Cohorts[0].Sessions = 0 }, "sessions must be >= 1"},
		{"zero requests", func(s *Spec) { s.Cohorts[0].Requests = 0 }, "requests must be >= 1"},
		{"missing arrival", func(s *Spec) { s.Cohorts[0].Arrival = nil }, "arrival is required"},
		{"zero rate", func(s *Spec) { s.Cohorts[0].Arrival.Rate = 0 }, "arrival rate must be > 0"},
		{"unknown process", func(s *Spec) { s.Cohorts[0].Arrival.Process = "mmpp" }, `arrival process "mmpp"`},
		{"gamma without shape", func(s *Spec) {
			s.Cohorts[0].Arrival = &Arrival{Process: ProcGamma, Rate: 100}
		}, "gamma arrivals need shape > 0"},
		{"weibull without shape", func(s *Spec) {
			s.Cohorts[0].Arrival = &Arrival{Process: ProcWeibull, Rate: 100}
		}, "weibull arrivals need shape > 0"},
		{"missing service for cohorts kind", func(s *Spec) { s.Cohorts[0].Service = nil }, "requires a service block"},
		{"unknown dist", func(s *Spec) { s.Cohorts[0].Service.Dist = "lognormal" }, `service dist "lognormal"`},
		{"zero service mean", func(s *Spec) { s.Cohorts[0].Service.MeanUS = 0 }, "service mean_us must be > 0"},
		{"pareto with thin tail", func(s *Spec) {
			s.Cohorts[0].Service = &Service{Dist: DistPareto, MeanUS: 10, Alpha: 1}
		}, "pareto service needs alpha > 1"},
		{"inverted modulation window", func(s *Spec) {
			s.Cohorts[0].Modulation = []Window{{FromUS: 10, ToUS: 10, Factor: 2}}
		}, "0 <= from_us < to_us"},
		{"zero modulation factor", func(s *Spec) {
			s.Cohorts[0].Modulation = []Window{{FromUS: 0, ToUS: 10, Factor: 0}}
		}, "factor must be > 0"},
		{"cohorts kind with batch", func(s *Spec) { s.Batch = &Batch{Workers: 2} }, "no pipeline/batch blocks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validCohorts()
			tc.mutate(s)
			err := s.Check()
			if err == nil {
				t.Fatalf("mutation accepted")
			}
			if !errors.Is(err, ErrInvalidSpec) {
				t.Errorf("error does not wrap ErrInvalidSpec: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCheckKindConstraints covers the per-kind shape rules the general
// table above cannot reach.
func TestCheckKindConstraints(t *testing.T) {
	echo := func() *Spec {
		s := validCohorts()
		s.Kind = KindEcho
		return s
	}
	cases := []struct {
		name string
		spec func() *Spec
		want string
	}{
		{"echo with two cohorts", func() *Spec {
			s := echo()
			c := s.Cohorts[0]
			c.Name = "b"
			s.Cohorts = append(s.Cohorts, c)
			return s
		}, "exactly one cohort"},
		{"echo with slo", func() *Spec {
			s := echo()
			s.Cohorts[0].SLOUS = 100
			return s
		}, "slo_us is not valid for kind echo"},
		{"echo with gamma arrivals", func() *Spec {
			s := echo()
			s.Cohorts[0].Arrival = &Arrival{Process: ProcGamma, Rate: 100, Shape: 2}
			return s
		}, "not valid for kind echo"},
		{"echo with modulation", func() *Spec {
			s := echo()
			s.Cohorts[0].Modulation = []Window{{FromUS: 0, ToUS: 10, Factor: 2}}
			return s
		}, "modulation is only valid for kind cohorts"},
		{"pipeline with cohorts", func() *Spec {
			s := validCohorts()
			s.Kind = KindPipeline
			s.Pipeline = &Pipeline{Pipelines: 2, Stages: 3, Requests: 10, Rate: 100}
			return s
		}, "no cohorts/batch"},
		{"pipeline with one stage", func() *Spec {
			return &Spec{Schema: Schema, Name: "t", Kind: KindPipeline,
				Pipeline: &Pipeline{Pipelines: 2, Stages: 1, Requests: 10, Rate: 100}}
		}, "stages >= 2"},
		{"pipeline with start delay", func() *Spec {
			return &Spec{Schema: Schema, Name: "t", Kind: KindPipeline, StartUS: 5,
				Pipeline: &Pipeline{Pipelines: 2, Stages: 3, Requests: 10, Rate: 100}}
		}, "start_us must be 0"},
		{"mixed without horizon", func() *Spec {
			s := validCohorts()
			s.Kind = KindMixed
			s.Batch = &Batch{Workers: 2, ChunkUS: 100}
			return s
		}, "requires horizon_us > 0"},
		{"mixed without batch", func() *Spec {
			s := validCohorts()
			s.Kind = KindMixed
			s.HorizonUS = 1000
			return s
		}, "requires a batch block"},
		{"mixed with normal interactive", func() *Spec {
			s := validCohorts()
			s.Kind = KindMixed
			s.HorizonUS = 1000
			s.Batch = &Batch{Workers: 2, ChunkUS: 100}
			s.Cohorts[0].Priority = "normal"
			return s
		}, "pins the interactive cohort at priority high"},
		{"slo without target", func() *Spec {
			s := validCohorts()
			s.Kind = KindSLO
			s.HorizonUS = 1000
			return s
		}, "requires slo_us > 0"},
		{"slo without horizon", func() *Spec {
			s := validCohorts()
			s.Kind = KindSLO
			s.Cohorts[0].SLOUS = 100
			return s
		}, "requires horizon_us > 0"},
		{"server with arrivals", func() *Spec {
			s := validCohorts()
			s.Kind = KindServer
			return s
		}, "externally driven"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec().Check()
			if err == nil {
				t.Fatalf("accepted")
			}
			if !errors.Is(err, ErrInvalidSpec) {
				t.Errorf("error does not wrap ErrInvalidSpec: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParsePriority(t *testing.T) {
	for name, want := range map[string]sim.Priority{
		"min": sim.PriorityMin, "background": sim.PriorityBackground,
		"low": sim.PriorityLow, "normal": sim.PriorityNormal,
		"high": sim.PriorityHigh, "daemon": sim.PriorityDaemon,
		"interrupt": sim.PriorityInterrupt,
	} {
		got, err := ParsePriority(name)
		if err != nil || got != want {
			t.Errorf("ParsePriority(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if got, err := ParsePriority(""); err != nil || got != 0 {
		t.Errorf("ParsePriority(\"\") = %v, %v; want 0, nil", got, err)
	}
	if _, err := ParsePriority("urgent"); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("ParsePriority(urgent) err = %v; want ErrInvalidSpec", err)
	}
}

func TestHorizon(t *testing.T) {
	s := validCohorts()
	s.HorizonUS = 12345
	if got := s.Horizon(); got != 12345*vclock.Microsecond {
		t.Errorf("declared horizon: got %v", got)
	}
	s.HorizonUS = 0
	// 100 requests at 1000/s inject over 0.1s; the derivation is 4x.
	if got := s.Horizon(); got != 400*vclock.Millisecond {
		t.Errorf("derived horizon: got %v, want 400ms", got)
	}
	p := &Spec{Schema: Schema, Name: "t", Kind: KindPipeline,
		Pipeline: &Pipeline{Pipelines: 2, Stages: 3, Requests: 50, Rate: 1000}}
	if got := p.Horizon(); got != 200*vclock.Millisecond {
		t.Errorf("pipeline horizon: got %v, want 200ms", got)
	}
}

func TestServiceMeanDefault(t *testing.T) {
	c := &Cohort{}
	if got := c.ServiceMean(); got != 5*vclock.Microsecond {
		t.Errorf("nil service mean = %v, want the echo generator's 5us", got)
	}
	c.Service = &Service{Dist: DistConst, MeanUS: 42}
	if got := c.ServiceMean(); got != 42*vclock.Microsecond {
		t.Errorf("declared mean = %v, want 42us", got)
	}
}

// TestPoissonMatchesExpDelay pins the sampler identity: the spec
// package's Poisson sampler must reproduce the historical expDelay draw
// (one ExpFloat64 per gap, 1us floor) byte-for-byte, or the shipped
// W-series specs stop compiling to the historical arrival sequences.
func TestPoissonMatchesExpDelay(t *testing.T) {
	a := &Arrival{Process: ProcPoisson, Rate: 5000}
	gap := a.GapSampler()
	r1 := rand.New(rand.NewSource(7))
	r2 := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		want := vclock.Duration(r2.ExpFloat64() / 5000 * 1e6)
		if want < vclock.Microsecond {
			want = vclock.Microsecond
		}
		if got := gap(r1); got != want {
			t.Fatalf("draw %d: sampler %v != expDelay %v", i, got, want)
		}
	}
}

// TestSamplerMeans checks every process and distribution converges on
// its declared mean — the property the knee driver's offered-load
// accounting leans on.
func TestSamplerMeans(t *testing.T) {
	const n = 200_000
	mean := func(s Sampler) float64 {
		rng := rand.New(rand.NewSource(1))
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(s(rng).Micros())
		}
		return sum / n
	}
	for _, tc := range []struct {
		name string
		s    Sampler
		want float64
		tol  float64
	}{
		{"poisson gaps", (&Arrival{Process: ProcPoisson, Rate: 1000}).GapSampler(), 1000, 0.05},
		{"gamma regular gaps", (&Arrival{Process: ProcGamma, Rate: 1000, Shape: 4}).GapSampler(), 1000, 0.05},
		{"gamma bursty gaps", (&Arrival{Process: ProcGamma, Rate: 1000, Shape: 0.5}).GapSampler(), 1000, 0.05},
		{"weibull gaps", (&Arrival{Process: ProcWeibull, Rate: 1000, Shape: 1.5}).GapSampler(), 1000, 0.05},
		{"exp service", (&Service{Dist: DistExp, MeanUS: 500}).Sampler(), 500, 0.05},
		// The Pareto tail converges slowly; allow a wider band.
		{"pareto service", (&Service{Dist: DistPareto, MeanUS: 500, Alpha: 2.5}).Sampler(), 500, 0.10},
	} {
		got := mean(tc.s)
		if math.Abs(got-tc.want)/tc.want > tc.tol {
			t.Errorf("%s: empirical mean %.1fus, want %.0fus +/- %.0f%%", tc.name, got, tc.want, tc.tol*100)
		}
	}
	// Constant service consumes no randomness: a nil stream must be safe.
	cs := (&Service{Dist: DistConst, MeanUS: 7}).Sampler()
	if got := cs(nil); got != 7*vclock.Microsecond {
		t.Errorf("const sampler = %v, want 7us", got)
	}
}

func TestFactorAt(t *testing.T) {
	win := []Window{
		{FromUS: 0, ToUS: 100, Factor: 2},
		{FromUS: 50, ToUS: 150, Factor: 3},
	}
	for _, tc := range []struct {
		at   int64
		want float64
	}{
		{0, 2}, {49, 2}, {50, 6}, {99, 6}, {100, 3}, {149, 3}, {150, 1},
	} {
		if got := FactorAt(win, vclock.Time(tc.at)); got != tc.want {
			t.Errorf("FactorAt(%dus) = %v, want %v", tc.at, got, tc.want)
		}
	}
}

func TestShipped(t *testing.T) {
	names := ShippedNames()
	if len(names) != 3 || names[0] != "w1" || names[1] != "w2" || names[2] != "w3" {
		t.Fatalf("ShippedNames() = %v, want [w1 w2 w3]", names)
	}
	kinds := map[string]string{"w1": KindEcho, "w2": KindPipeline, "w3": KindMixed}
	for name, kind := range kinds {
		s, err := Shipped(name)
		if err != nil {
			t.Fatalf("Shipped(%s): %v", name, err)
		}
		if s.Kind != kind {
			t.Errorf("Shipped(%s).Kind = %s, want %s", name, s.Kind, kind)
		}
		// Shipped returns a private copy: mutating it must not leak into
		// the next parse (quick mode scales cohort sizes in place).
		if len(s.Cohorts) > 0 {
			s.Cohorts[0].Sessions = 1
			again := MustShipped(name)
			if again.Cohorts[0].Sessions == 1 {
				t.Errorf("Shipped(%s) shares state across calls", name)
			}
		}
	}
	if _, err := Shipped("w9"); err == nil || !strings.Contains(err.Error(), `no shipped spec "w9"`) {
		t.Errorf("Shipped(w9) err = %v", err)
	}
}

// TestParseRoundTrip: a validated spec survives Marshal -> Parse with
// nothing lost — the property that makes specs diffable artifacts.
func TestParseRoundTrip(t *testing.T) {
	s := validCohorts()
	s.Cohorts[0].Modulation = []Window{{FromUS: 10, ToUS: 20, Factor: 2.5}}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse of marshalled spec: %v", err)
	}
	data2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Errorf("round trip not stable:\n%s\n%s", data, data2)
	}
}

// limitDocs are documents at each resource limit (ok) and one step past
// it. TestCheckLimits checks the verdicts; FuzzSpecJSON seeds from them.
var limitDocs = func() []struct {
	name string
	ok   bool
	doc  string
} {
	cohort := func(name string, sessions int, requests int64, rate float64) string {
		return fmt.Sprintf(`{"name":%q,"sessions":%d,"requests":%d,"arrival":{"process":"poisson","rate":%g},`+
			`"service":{"dist":"const","mean_us":1},"slo_us":1}`, name, sessions, requests, rate)
	}
	doc := func(kind, extra string, cohorts ...string) string {
		return fmt.Sprintf(`{"schema":1,"name":"limit","kind":%q%s,"cohorts":[%s]}`, kind, extra, strings.Join(cohorts, ","))
	}
	pipe := func(pipelines, stages int) string {
		return fmt.Sprintf(`{"schema":1,"name":"limit","kind":"pipeline","pipeline":{"pipelines":%d,"stages":%d,"requests":1,"rate":1}}`, pipelines, stages)
	}
	// mixed is a kind mixed document whose batch block leaves chunk_us
	// at the kind's 200us default.
	mixed := func(horizonUS int64) string {
		return fmt.Sprintf(`{"schema":1,"name":"limit","kind":"mixed","horizon_us":%d,"batch":{"workers":1},`+
			`"cohorts":[{"name":"a","sessions":1,"requests":1,"arrival":{"process":"poisson","rate":1}}]}`, horizonUS)
	}
	type row = struct {
		name string
		ok   bool
		doc  string
	}
	return []row{
		{"sessions at limit", true, doc("cohorts", "", cohort("a", MaxSessions, 1, 1))},
		{"sessions past limit", false, doc("cohorts", "", cohort("a", MaxSessions+1, 1, 1))},
		{"threads at limit", true, doc("slo", `,"horizon_us":1000000,"batch":{"workers":0}`,
			cohort("a", MaxSessions, 1, 1), cohort("b", MaxSessions, 1, 1))},
		{"threads past limit", false, doc("slo", `,"horizon_us":1000000,"batch":{"workers":1}`,
			cohort("a", MaxSessions, 1, 1), cohort("b", MaxSessions, 1, 1))},
		{"pipeline threads at limit", true, pipe(MaxThreads/4, 4)},
		{"pipeline threads past limit", false, pipe(MaxThreads/4, 5)},
		{"requests at limit", true, doc("cohorts", "", cohort("a", 1, MaxRequests, 2000))},
		{"requests past limit", false, doc("cohorts", "", cohort("a", 1, MaxRequests+1, 2000))},
		{"total requests past limit", false, doc("cohorts", "",
			cohort("a", 1, MaxRequests/2, 2000), cohort("b", 1, MaxRequests/2+1, 2000))},
		{"declared horizon at limit", true, doc("cohorts", `,"horizon_us":3600000000`, cohort("a", 1, 1, 1))},
		{"declared horizon past limit", false, doc("cohorts", `,"horizon_us":3600000001`, cohort("a", 1, 1, 1))},
		{"derived horizon at limit", true, doc("cohorts", "", cohort("a", 1, 900, 1))},
		{"derived horizon past limit", false, doc("cohorts", "", cohort("a", 1, 901, 1))},
		{"vanishing rate", false, doc("cohorts", "", cohort("a", 1, 1, 1e-300))},
		{"start at limit", true, doc("cohorts", `,"start_us":3600000000`, cohort("a", 1, 1, 1))},
		{"start past limit", false, doc("cohorts", `,"start_us":3600000001`, cohort("a", 1, 1, 1))},
		{"batch grains at limit", true, doc("slo", `,"horizon_us":1000000,"batch":{"workers":1,"chunk_us":1}`, cohort("a", 1, 1, 1))},
		{"batch grains past limit", false, doc("slo", `,"horizon_us":1000001,"batch":{"workers":1,"chunk_us":1}`, cohort("a", 1, 1, 1))},
		{"default batch grains at limit", true, mixed(MaxBatchGrains * 200)},
		{"default batch grains past limit", false, mixed((MaxBatchGrains + 1) * 200)},
	}
}()

func TestCheckLimits(t *testing.T) {
	for _, tc := range limitDocs {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse([]byte(tc.doc))
			switch {
			case tc.ok && err != nil:
				t.Fatalf("rejected at the limit: %v", err)
			case !tc.ok && !errors.Is(err, ErrInvalidSpec):
				t.Fatalf("err = %v, want ErrInvalidSpec", err)
			case tc.ok && s.Horizon() > MaxHorizonUS:
				t.Fatalf("accepted horizon %v past the limit", s.Horizon())
			}
		})
	}
}

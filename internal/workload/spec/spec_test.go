package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
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
		{"negative horizon", func(s *Spec) { s.HorizonUS = -1 }, "horizon_us must be >= 0"},
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
		{"NaN rate", func(s *Spec) { s.Cohorts[0].Arrival.Rate = math.NaN() }, "arrival rate must be > 0"},
		{"infinite rate", func(s *Spec) { s.Cohorts[0].Arrival.Rate = math.Inf(1) }, "arrival rate must be > 0"},
		{"unknown process", func(s *Spec) { s.Cohorts[0].Arrival.Process = "mmpp" }, `arrival process "mmpp"`},
		// The processes the cohorts kind once accepted are rejected like
		// any other name but poisson.
		{"gamma without shape", func(s *Spec) { s.Cohorts[0].Arrival.Process = "gamma" }, `arrival process "gamma"`},
		{"weibull without shape", func(s *Spec) { s.Cohorts[0].Arrival.Process = "weibull" }, `arrival process "weibull"`},
		{"missing service for cohorts kind", func(s *Spec) { s.Cohorts[0].Service = nil }, "requires a service block"},
		{"unknown dist", func(s *Spec) { s.Cohorts[0].Service.Dist = "lognormal" }, `service dist "lognormal"`},
		{"zero service mean", func(s *Spec) { s.Cohorts[0].Service.MeanUS = 0 }, "service mean_us must be > 0"},
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
			s.Cohorts[0].Arrival = &Arrival{Process: "gamma", Rate: 100}
			return s
		}, "not valid for kind echo"},
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
		{"pipeline with NaN rate", func() *Spec {
			return &Spec{Schema: Schema, Name: "t", Kind: KindPipeline,
				Pipeline: &Pipeline{Pipelines: 2, Stages: 3, Requests: 10, Rate: math.NaN()}}
		}, "pipeline rate must be > 0"},
		{"pipeline with infinite rate", func() *Spec {
			return &Spec{Schema: Schema, Name: "t", Kind: KindPipeline,
				Pipeline: &Pipeline{Pipelines: 2, Stages: 3, Requests: 10, Rate: math.Inf(1)}}
		}, "pipeline rate must be > 0"},
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

// TestSamplerMeans checks the Poisson gaps converge on their declared
// mean — the property the knee driver's offered-load accounting leans
// on.
func TestSamplerMeans(t *testing.T) {
	const n = 200_000
	gap := (&Arrival{Process: ProcPoisson, Rate: 1000}).GapSampler()
	rng := rand.New(rand.NewSource(1))
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(gap(rng).Micros())
	}
	if got := sum / n; math.Abs(got-1000)/1000 > 0.05 {
		t.Errorf("poisson gaps: empirical mean %.1fus, want 1000us +/- 5%%", got)
	}
}

// TestQuantize: the float-microsecond conversion truncates in range,
// saturates at and past the int64 range instead of wrapping onto the
// 1us floor, and sends NaN and sub-microsecond values to the floor.
func TestQuantize(t *testing.T) {
	below := math.Nextafter(math.MaxInt64, 0) // largest float64 under 2^63
	for _, tc := range []struct {
		us   float64
		want vclock.Duration
	}{
		{-math.MaxFloat64, vclock.Microsecond},
		{math.Inf(-1), vclock.Microsecond},
		{-5, vclock.Microsecond},
		{0, vclock.Microsecond},
		{0.999, vclock.Microsecond},
		{math.NaN(), vclock.Microsecond},
		{1, vclock.Microsecond},
		{1.9, vclock.Microsecond},
		{1234.7, 1234},
		{1 << 62, 1 << 62},
		{below, vclock.Duration(below)},
		{math.MaxInt64, math.MaxInt64},
		{1e300, math.MaxInt64},
		{math.Inf(1), math.MaxInt64},
	} {
		if got := Quantize(tc.us); got != tc.want {
			t.Errorf("Quantize(%g) = %d, want %d", tc.us, got, tc.want)
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
	data, err := json.Marshal(validCohorts())
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
		{"derived horizon a fraction past limit", false, doc("cohorts", "", cohort("a", 1, 1, 0.001111111111111111))},
		{"vanishing rate", false, doc("cohorts", "", cohort("a", 1, 1, 1e-300))},
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
			// A horizon rejection prints a horizon that visibly
			// exceeds the limit, however small the excess.
			m := horizonMsg.FindStringSubmatch(fmt.Sprint(err))
			if !tc.ok && strings.Contains(tc.name, "horizon") && m == nil {
				t.Fatalf("err = %v, want the horizon rejection", err)
			}
			if m != nil {
				h, herr := strconv.ParseFloat(m[1], 64)
				limit, lerr := strconv.ParseFloat(m[2], 64)
				if herr != nil || lerr != nil || !(h > limit) {
					t.Fatalf("horizon message %q does not show the horizon past the limit", m[0])
				}
			}
		})
	}
}

// horizonMsg matches checkLimits' horizon rejection.
var horizonMsg = regexp.MustCompile(`horizon ([0-9.e+]+)us exceeds the limit ([0-9]+)`)

// removedFieldDocs are valid documents each extended by one field the
// schema once carried: Parse must reject every one rather than run a
// load other than the one the document asks for. FuzzSpecJSON seeds
// from them.
var removedFieldDocs = func() []struct{ field, doc string } {
	const (
		arrival = `"arrival":{"process":"poisson","rate":100}`
		service = `"service":{"dist":"const","mean_us":10}`
	)
	doc := func(top, arrival, service, cohort string) string {
		return `{"schema":1,"name":"old","kind":"cohorts"` + top + `,"cohorts":[{"name":"a","sessions":1,"requests":1,` +
			arrival + `,` + service + cohort + `}]}`
	}
	return []struct{ field, doc string }{
		{"shape", doc("", `"arrival":{"process":"poisson","rate":100,"shape":2}`, service, "")},
		{"alpha", doc("", arrival, `"service":{"dist":"const","mean_us":10,"alpha":2.5}`, "")},
		{"modulation", doc("", arrival, service, `,"modulation":[{"from_us":0,"to_us":10,"factor":2}]`)},
		{"start_us", doc(`,"start_us":5`, arrival, service, "")},
	}
}()

func TestParseRejectsUnknownFields(t *testing.T) {
	for _, tc := range removedFieldDocs {
		_, err := Parse([]byte(tc.doc))
		if !errors.Is(err, ErrInvalidSpec) || !strings.Contains(err.Error(), `unknown field "`+tc.field+`"`) {
			t.Errorf("%s: err = %v, want ErrInvalidSpec naming the unknown field", tc.field, err)
		}
	}
	// The same document without the field parses, so the field alone
	// is what each rejection names; data after it is still rejected.
	clean := strings.Replace(removedFieldDocs[3].doc, `,"start_us":5`, "", 1)
	if _, err := Parse([]byte(clean)); err != nil {
		t.Fatalf("document without the removed field rejected: %v", err)
	}
	if _, err := Parse([]byte(clean + "{}")); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("trailing data after the document: err = %v, want ErrInvalidSpec", err)
	}
}

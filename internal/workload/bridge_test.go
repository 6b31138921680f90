package workload

import (
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload/spec"
)

// TestStartSpecRejects covers the construction sentinel: every invalid
// spec fails with spec.ErrInvalidSpec and a usable message.
func TestStartSpecRejects(t *testing.T) {
	valid := func() *spec.Spec {
		return &spec.Spec{Schema: spec.Schema, Name: "v", Kind: spec.KindCohorts,
			Cohorts: []spec.Cohort{{Name: "a", Sessions: 2, Requests: 10,
				Arrival: &spec.Arrival{Process: spec.ProcPoisson, Rate: 100},
				Service: &spec.Service{Dist: spec.DistConst, MeanUS: 5}}},
			HorizonUS: 1_000_000}
	}
	tamper := func(mutate func(*spec.Spec)) *spec.Spec {
		s := valid()
		mutate(s)
		return s
	}
	cases := []struct {
		name string
		sp   *spec.Spec
	}{
		{"invalid spec", tamper(func(s *spec.Spec) { s.Cohorts[0].Arrival.Rate = -1 })},
		{"duplicate cohorts", tamper(func(s *spec.Spec) {
			s.Cohorts = append(s.Cohorts, s.Cohorts[0])
		})},
		{"unknown background", tamper(func(s *spec.Spec) { s.Background = "vax" })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := sim.NewWorld(sim.Config{Seed: 1})
			defer w.Shutdown()
			_, err := StartSpec(w, tc.sp, SpecOptions{})
			if err == nil {
				t.Fatalf("StartSpec accepted")
			}
			if !errors.Is(err, spec.ErrInvalidSpec) {
				t.Errorf("error does not wrap ErrInvalidSpec: %v", err)
			}
		})
	}
}

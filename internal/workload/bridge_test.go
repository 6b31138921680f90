package workload

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/vclock"
	"repro/internal/workload/spec"
)

// These tests pin the spec compiler's trace contract: record and replay
// reproduce a run event for event, and every invalid spec or trace fails
// with the sentinel. EventsProcessed counts every scheduling decision the
// world made, so equality there plus equal stats renderings is
// byte-identity for everything the experiments report.

// quickShipped returns a shipped W-series spec scaled to test size.
func quickShipped(t *testing.T, name string, scale func(*spec.Spec)) *spec.Spec {
	t.Helper()
	sp, err := spec.Shipped(name)
	if err != nil {
		t.Fatal(err)
	}
	scale(sp)
	if err := sp.Check(); err != nil {
		t.Fatalf("scaled %s spec invalid: %v", name, err)
	}
	return sp
}

// runSpec compiles and drives one spec, returning the world's event
// count and the run's aggregate stats rendering.
func runSpec(t *testing.T, sp *spec.Spec, seed int64, opts SpecOptions) (int64, string) {
	t.Helper()
	w := sim.NewWorld(sim.Config{Seed: seed, SystemDaemon: sp.SystemDaemon})
	defer w.Shutdown()
	run, err := StartSpec(w, sp, opts)
	if err != nil {
		t.Fatalf("StartSpec(%s): %v", sp.Name, err)
	}
	w.Run(vclock.Time(0).Add(run.Horizon))
	if run.SLO != nil {
		s := run.SLO.Finish()
		var b strings.Builder
		fmt.Fprintf(&b, "threads=%d", s.Threads)
		for _, class := range s.Classes() {
			fmt.Fprintf(&b, " %s[off=%d done=%d ontime=%d lat=%s]",
				class, s.Offered[class], s.Completed[class], s.OnTime[class],
				s.Latency.Class(class).String())
		}
		return w.EventsProcessed(), b.String()
	}
	return w.EventsProcessed(), run.Load().String()
}

// specsUnderTest returns one spec per replayable kind, test-sized.
func specsUnderTest(t *testing.T) []*spec.Spec {
	t.Helper()
	return []*spec.Spec{
		quickShipped(t, "w1", func(s *spec.Spec) {
			s.Cohorts[0].Sessions = 100
			s.Cohorts[0].Requests = 1000
		}),
		quickShipped(t, "w2", func(s *spec.Spec) {
			s.Pipeline.Pipelines = 4
			s.Pipeline.Requests = 400
		}),
		quickShipped(t, "w3", func(s *spec.Spec) {
			s.Cohorts[0].Sessions = 32
			s.Cohorts[0].Requests = 1500
			s.Batch.Workers = 4
			s.HorizonUS = (2 * vclock.Second).Micros()
		}),
		{Schema: spec.Schema, Name: "slo-mix", Kind: spec.KindSLO,
			Cohorts: []spec.Cohort{
				{Name: "fast", Sessions: 8, Requests: 800,
					Arrival:  &spec.Arrival{Process: spec.ProcPoisson, Rate: 400},
					Service:  &spec.Service{Dist: spec.DistConst, MeanUS: 500},
					Priority: "high", SLOUS: 20_000},
				{Name: "slow", Sessions: 4, Requests: 200,
					Arrival: &spec.Arrival{Process: spec.ProcPoisson, Rate: 100},
					Service: &spec.Service{Dist: spec.DistConst, MeanUS: 2000},
					SLOUS:   100_000},
			},
			Batch:     &spec.Batch{Workers: 2, ChunkUS: 1000, SLOUS: 50_000},
			HorizonUS: (3 * vclock.Second).Micros()},
		{Schema: spec.Schema, Name: "general", Kind: spec.KindCohorts,
			Cohorts: []spec.Cohort{
				{Name: "bursty", Sessions: 16, Requests: 2000,
					Arrival: &spec.Arrival{Process: spec.ProcGamma, Rate: 1500, Shape: 0.5},
					Service: &spec.Service{Dist: spec.DistExp, MeanUS: 120},
					Modulation: []spec.Window{
						{FromUS: 0, ToUS: 400_000, Factor: 0.5},
						{FromUS: 400_000, ToUS: 900_000, Factor: 2},
					}},
				{Name: "heavy", Sessions: 4, Requests: 150,
					Arrival: &spec.Arrival{Process: spec.ProcWeibull, Rate: 100, Shape: 1.5},
					Service: &spec.Service{Dist: spec.DistPareto, MeanUS: 3000, Alpha: 2.5},
					SLOUS:   80_000},
			},
			HorizonUS: (4 * vclock.Second).Micros()},
	}
}

// TestRecordReplayRoundTrip is the trace contract, per kind: a recorded
// run replayed — even in a world seeded differently — reproduces the
// same event sequence and stats, and re-recording the replay reproduces
// the trace byte-for-byte.
func TestRecordReplayRoundTrip(t *testing.T) {
	for _, sp := range specsUnderTest(t) {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			rec := spec.NewTrace(sp.Name, 3)
			liveEvents, liveStats := runSpec(t, sp, 3, SpecOptions{Record: rec})
			if len(rec.Entries) == 0 {
				t.Fatal("recorded no entries")
			}

			// Same seed, replayed: identical world, identical trace.
			rerec := spec.NewTrace(sp.Name, 3)
			replayEvents, replayStats := runSpec(t, sp, 3, SpecOptions{Replay: rec, Record: rerec})
			if replayEvents != liveEvents || replayStats != liveStats {
				t.Errorf("replay diverged from the recorded run:\n live:   %d events, %s\n replay: %d events, %s",
					liveEvents, liveStats, replayEvents, replayStats)
			}
			if !bytes.Equal(rec.Bytes(), rerec.Bytes()) {
				t.Errorf("re-recorded trace differs from the original")
			}

			// A different world seed must not matter: the trace, not the
			// RNG, owns arrivals, sessions and demands.
			rerec2 := spec.NewTrace(sp.Name, 3)
			if _, stats := runSpec(t, sp, 99, SpecOptions{Replay: rec, Record: rerec2}); stats != liveStats {
				t.Errorf("replay under seed 99 moved the stats:\n live:   %s\n replay: %s", liveStats, stats)
			}
			if !bytes.Equal(rec.Bytes(), rerec2.Bytes()) {
				t.Errorf("re-recorded trace under seed 99 differs from the original")
			}
		})
	}
}

// TestStartSpecRejects covers the construction sentinel: every invalid
// spec or trace fails with spec.ErrInvalidSpec and a usable message.
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
	withTrace := func(entries ...spec.Entry) SpecOptions {
		tr := spec.NewTrace("v", 1)
		tr.Entries = entries
		return SpecOptions{Replay: tr}
	}
	cases := []struct {
		name string
		sp   *spec.Spec
		opts SpecOptions
	}{
		{"invalid spec", tamper(func(s *spec.Spec) { s.Cohorts[0].Arrival.Rate = -1 }), SpecOptions{}},
		{"duplicate cohorts", tamper(func(s *spec.Spec) {
			s.Cohorts = append(s.Cohorts, s.Cohorts[0])
		}), SpecOptions{}},
		{"unknown background", tamper(func(s *spec.Spec) { s.Background = "vax" }), SpecOptions{}},
		{"trace names unknown cohort", valid(),
			withTrace(spec.Entry{AtUS: 1, Cohort: "b", Session: 0, ServiceUS: 5})},
		{"trace session out of pool", valid(),
			withTrace(spec.Entry{AtUS: 1, Cohort: "a", Session: 2, ServiceUS: 5})},
		{"trace arrivals not increasing", valid(),
			withTrace(
				spec.Entry{AtUS: 5, Cohort: "a", Session: 0, ServiceUS: 5},
				spec.Entry{AtUS: 5, Cohort: "a", Session: 1, ServiceUS: 5})},
		{"trace missing a cohort", valid(), withTrace()},
		{"server kind replay", &spec.Spec{Schema: spec.Schema, Name: "srv", Kind: spec.KindServer,
			Cohorts: []spec.Cohort{{Name: "s", Sessions: 2}}},
			withTrace(spec.Entry{AtUS: 1, Cohort: "s", Session: 0, ServiceUS: 5})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := sim.NewWorld(sim.Config{Seed: 1})
			defer w.Shutdown()
			_, err := StartSpec(w, tc.sp, tc.opts)
			if err == nil {
				t.Fatalf("StartSpec accepted")
			}
			if !errors.Is(err, spec.ErrInvalidSpec) {
				t.Errorf("error does not wrap ErrInvalidSpec: %v", err)
			}
		})
	}
}

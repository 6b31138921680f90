package cluster

import (
	"testing"

	"repro/internal/vclock"
)

// blindFleetSpec is a small fleet on the blind path: round-robin
// routing reads no loads and the requests carry no client state, so
// the driver only routes and injects.
func blindFleetSpec(requests int64) Spec {
	spec := smallSpec()
	spec.Requests = requests
	spec.Service = 10 * vclock.Microsecond
	return spec
}

// TestBlindInjectionAllocs pins what a blind round-robin fleet pays per
// request. Doubling the offered load may add fewer than half an
// allocation per extra request: an injection waits in its instance's
// inbox, whose reused fixed-size blocks are the only storage it needs.
// A closure and an event per request would cost about two.
func TestBlindInjectionAllocs(t *testing.T) {
	const n = 4000
	allocs := func(requests int64) float64 {
		spec := blindFleetSpec(requests)
		return testing.AllocsPerRun(2, func() {
			if _, err := Run(spec); err != nil {
				t.Fatal(err)
			}
		})
	}
	base, doubled := allocs(n), allocs(2*n)
	if per := (doubled - base) / n; per >= 0.5 {
		t.Errorf("%.0f allocations at %d requests, %.0f at %d: %.2f per extra request, want < 0.5",
			base, n, doubled, 2*n, per)
	}
}

// BenchmarkBlindFleet runs the blind fleet end to end, New through
// Shutdown: ns/op and allocs/op of routing and injecting 4,000
// requests into four instances.
func BenchmarkBlindFleet(b *testing.B) {
	spec := blindFleetSpec(4000)
	uncheckedBarriers(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResilientFleet runs the faulted fleet end to end, New
// through Shutdown: the tracked driver's cost for 2,000 requests into
// four instances with timeouts, budgeted retries, hedges, breakers,
// health probes, and a crash, a stall and a brownout.
func BenchmarkResilientFleet(b *testing.B) {
	spec := faultedSpec()
	uncheckedBarriers(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

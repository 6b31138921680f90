package spec

import (
	"math"
	"math/rand"

	"repro/internal/vclock"
)

// This file compiles a spec's arrival process into a gap sampler — a
// closure drawing from a generator-owned rand stream, quantized to the
// simulator's microsecond clock with a 1us floor, so same-instant
// storms cannot form by rounding. Service demand is constant
// (Cohort.ServiceMean) and draws nothing, so adding a cohort to a spec
// never perturbs another cohort's stream.
//
// The Poisson sampler reproduces the original W-series generators' gap
// draw byte-for-byte (one ExpFloat64 per gap): that identity is what
// lets the shipped W-series specs compile to the same arrival sequences
// the hardcoded generators produced, which TestTraceDigests (internal/sim)
// and TestSweepPayload (internal/experiments) pin.

// Sampler draws one duration from a distribution.
type Sampler func(*rand.Rand) vclock.Duration

// Quantize converts a duration in float microseconds to the clock grain,
// truncating. Values at or past the int64 range (+Inf included)
// saturate to math.MaxInt64 instead of wrapping negative; NaN and
// values under 1us land on the 1us floor.
func Quantize(us float64) vclock.Duration {
	switch {
	case us >= math.MaxInt64:
		return math.MaxInt64
	case !(us >= 1): // NaN fails every comparison
		return vclock.Microsecond
	}
	return vclock.Duration(us)
}

// GapSampler compiles the Poisson arrival process into an
// inter-arrival-gap sampler with mean 1/Rate virtual seconds.
func (a *Arrival) GapSampler() Sampler {
	rate := a.Rate
	return func(rng *rand.Rand) vclock.Duration {
		return Quantize(rng.ExpFloat64() / rate * 1e6)
	}
}

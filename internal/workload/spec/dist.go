package spec

import (
	"math"
	"math/rand"

	"repro/internal/vclock"
)

// This file compiles Arrival and Service declarations into samplers —
// closures drawing from a generator-owned rand stream, quantized to the
// simulator's microsecond clock with a 1us floor, so same-instant
// storms cannot form by rounding.
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

// GapSampler compiles the arrival process into an inter-arrival-gap
// sampler with mean 1/Rate virtual seconds. Check must have accepted
// the spec first; unknown processes panic.
func (a *Arrival) GapSampler() Sampler {
	rate := a.Rate
	switch a.Process {
	case ProcPoisson:
		return func(rng *rand.Rand) vclock.Duration {
			return Quantize(rng.ExpFloat64() / rate * 1e6)
		}
	case ProcGamma:
		// Gamma(k, θ) with k = Shape and θ chosen so the mean gap is
		// 1/rate: regular (k>1) or bursty (k<1) arrivals at equal load.
		k := a.Shape
		scaleUS := 1 / (rate * k) * 1e6
		return func(rng *rand.Rand) vclock.Duration {
			return Quantize(gammaDraw(rng, k) * scaleUS)
		}
	case ProcWeibull:
		// Weibull(k, λ) with λ = 1/(rate·Γ(1+1/k)) so the mean is 1/rate.
		k := a.Shape
		scaleUS := 1 / (rate * math.Gamma(1+1/k)) * 1e6
		return func(rng *rand.Rand) vclock.Duration {
			return Quantize(scaleUS * math.Pow(-math.Log(1-rng.Float64()), 1/k))
		}
	}
	panic("spec: GapSampler on unvalidated arrival process " + a.Process)
}

// Sampler compiles the service distribution into a demand sampler.
// The const sampler consumes no randomness, so adding a constant-service
// cohort to a spec never perturbs another cohort's stream.
func (s *Service) Sampler() Sampler {
	meanUS := float64(s.MeanUS)
	switch s.Dist {
	case DistConst:
		d := vclock.Duration(s.MeanUS)
		return func(*rand.Rand) vclock.Duration { return d }
	case DistExp:
		return func(rng *rand.Rand) vclock.Duration {
			return Quantize(rng.ExpFloat64() * meanUS)
		}
	case DistPareto:
		// Pareto with tail index Alpha and minimum x_m chosen so the
		// mean is MeanUS: x_m = mean·(α-1)/α.
		alpha := s.Alpha
		xmUS := meanUS * (alpha - 1) / alpha
		return func(rng *rand.Rand) vclock.Duration {
			return Quantize(xmUS / math.Pow(1-rng.Float64(), 1/alpha))
		}
	}
	panic("spec: Sampler on unvalidated service dist " + s.Dist)
}

// gammaDraw samples Gamma(k, 1) by Marsaglia–Tsang squeeze for k >= 1,
// boosted from k+1 for k < 1 (G(k) = G(k+1)·U^{1/k}).
func gammaDraw(rng *rand.Rand, k float64) float64 {
	if k < 1 {
		u := 1 - rng.Float64() // (0,1]: the boost exponent must not see 0
		return gammaDraw(rng, k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// FactorAt returns the modulation factor in effect at time t: the
// product of every window containing t, 1 when none do.
func FactorAt(windows []Window, t vclock.Time) float64 {
	f := 1.0
	us := t.Micros()
	for _, w := range windows {
		if us >= w.FromUS && us < w.ToUS {
			f *= w.Factor
		}
	}
	return f
}

// ServiceSampler compiles the cohort's demand distribution; a cohort
// without a service block gets the constant ServiceMean.
func (c *Cohort) ServiceSampler() Sampler {
	if c.Service == nil {
		d := c.ServiceMean()
		return func(*rand.Rand) vclock.Duration { return d }
	}
	return c.Service.Sampler()
}

package stats

import (
	"math"
	"testing"

	"repro/internal/vclock"
)

// Edge-case table for the latency quantiles: empty series, a single
// sample, and hostile p values (NaN would otherwise become a huge
// negative index via int conversion).
func TestLatencyRecorderEdges(t *testing.T) {
	ms := vclock.Millisecond
	one := &LatencyRecorder{}
	one.Add(7 * ms)
	three := &LatencyRecorder{}
	for _, d := range []vclock.Duration{30 * ms, 10 * ms, 20 * ms} {
		three.Add(d)
	}
	cases := []struct {
		name string
		r    *LatencyRecorder
		p    float64
		want vclock.Duration
	}{
		{"empty p50", &LatencyRecorder{}, 0.5, 0},
		{"empty max", &LatencyRecorder{}, 1, 0},
		{"empty NaN", &LatencyRecorder{}, math.NaN(), 0},
		{"single p0", one, 0, 7 * ms},
		{"single p50", one, 0.5, 7 * ms},
		{"single p100", one, 1, 7 * ms},
		{"single NaN clamps low", one, math.NaN(), 7 * ms},
		{"three NaN clamps low", three, math.NaN(), 10 * ms},
		{"negative p clamps low", three, -4.5, 10 * ms},
		{"huge p clamps high", three, 17, 30 * ms},
		{"+Inf clamps high", three, math.Inf(1), 30 * ms},
		{"-Inf clamps low", three, math.Inf(-1), 10 * ms},
		{"median sorts", three, 0.5, 20 * ms},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.r.Percentile(tc.p); got != tc.want {
				t.Errorf("Percentile(%v) = %s, want %s", tc.p, got, tc.want)
			}
		})
	}
	if got := (&LatencyRecorder{}).Mean(); got != 0 {
		t.Errorf("empty Mean = %s", got)
	}
	if got := (&LatencyRecorder{}).String(); got != "n=0" {
		t.Errorf("empty String = %q", got)
	}
	if got := one.Mean(); got != 7*ms {
		t.Errorf("single Mean = %s", got)
	}
}

// Merge must preserve exact nearest-rank percentiles: a recorder built
// by merging per-instance recorders answers every quantile identically
// to one fed the union of samples directly.
func TestLatencyRecorderMerge(t *testing.T) {
	us := vclock.Microsecond
	fill := func(ds ...vclock.Duration) *LatencyRecorder {
		r := &LatencyRecorder{}
		for _, d := range ds {
			r.Add(d)
		}
		return r
	}
	cases := []struct {
		name string
		a, b []vclock.Duration
	}{
		{"empty+empty", nil, nil},
		{"empty+nonempty", nil, []vclock.Duration{5 * us, 1 * us, 9 * us}},
		{"nonempty+empty", []vclock.Duration{4 * us, 2 * us}, nil},
		{"interleaved duplicates",
			[]vclock.Duration{1 * us, 3 * us, 3 * us, 7 * us},
			[]vclock.Duration{3 * us, 1 * us, 7 * us, 3 * us, 2 * us}},
		{"disjoint ranges", []vclock.Duration{100 * us, 200 * us}, []vclock.Duration{1 * us, 2 * us, 3 * us}},
	}
	quantiles := []float64{0, 0.25, 0.5, 0.95, 0.99, 1}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			merged := fill(tc.a...)
			other := fill(tc.b...)
			// Read other first so Merge sees a partly ordered donor — the
			// merged recorder must rank the union rather than trust donor
			// order.
			other.Percentile(0.5)
			merged.Merge(other)
			direct := fill(append(append([]vclock.Duration{}, tc.a...), tc.b...)...)
			if merged.Count() != direct.Count() {
				t.Fatalf("merged count = %d, want %d", merged.Count(), direct.Count())
			}
			if merged.Mean() != direct.Mean() {
				t.Errorf("merged mean = %s, want %s", merged.Mean(), direct.Mean())
			}
			for _, p := range quantiles {
				if got, want := merged.Percentile(p), direct.Percentile(p); got != want {
					t.Errorf("merged p%v = %s, direct = %s", p, got, want)
				}
			}
			// The donor is untouched.
			if want := fill(tc.b...); other.Count() != want.Count() || other.Percentile(0.5) != want.Percentile(0.5) {
				t.Errorf("Merge mutated its argument: %s vs %s", other, want)
			}
		})
	}

	// Order independence: merging A into B equals merging B into A.
	ab := fill(9*us, 1*us)
	ab.Merge(fill(5*us, 5*us, 2*us))
	ba := fill(5*us, 5*us, 2*us)
	ba.Merge(fill(9*us, 1*us))
	for _, p := range quantiles {
		if ab.Percentile(p) != ba.Percentile(p) {
			t.Errorf("merge order changed p%v: %s vs %s", p, ab.Percentile(p), ba.Percentile(p))
		}
	}

	// Self-merge and nil-merge are no-ops.
	self := fill(3*us, 1*us)
	self.Merge(self)
	self.Merge(nil)
	if self.Count() != 2 || self.Mean() != 2*us {
		t.Errorf("self/nil merge changed the recorder: %s", self)
	}
}

// TestLatencyRecorderGrow: Grow sizes the recorder once, so merging the
// announced samples reallocates nothing, and it changes no statistic.
func TestLatencyRecorderGrow(t *testing.T) {
	us := vclock.Microsecond
	parts := make([]*LatencyRecorder, 4)
	plain := &LatencyRecorder{}
	for i := range parts {
		parts[i] = &LatencyRecorder{}
		for j := 0; j < 100; j++ {
			parts[i].Add(vclock.Duration((i*37+j*11)%97) * us)
		}
		plain.Merge(parts[i])
	}
	grown := &LatencyRecorder{}
	grown.Grow(400)
	reserved := cap(grown.samples)
	for _, p := range parts {
		grown.Merge(p)
	}
	if reserved < 400 || cap(grown.samples) != reserved {
		t.Errorf("Grow(400) reserved %d, capacity after 400 merged samples %d", reserved, cap(grown.samples))
	}
	if grown.Count() != plain.Count() || grown.Mean() != plain.Mean() {
		t.Fatalf("grown recorder %s, plain %s", grown, plain)
	}
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if g, w := grown.Percentile(p), plain.Percentile(p); g != w {
			t.Errorf("p%v: grown %s, plain %s", p, g, w)
		}
	}
}

func TestHistogramEdges(t *testing.T) {
	ms := vclock.Millisecond
	t.Run("empty", func(t *testing.T) {
		h := NewIntervalHistogram()
		if h.Count() != 0 || h.Total() != 0 {
			t.Errorf("empty: count=%d total=%s", h.Count(), h.Total())
		}
		if got := h.PeakBucket(); got != -1 {
			t.Errorf("empty PeakBucket = %d, want -1", got)
		}
		if got := h.FractionCount(0, vclock.Second); got != 0 {
			t.Errorf("empty FractionCount = %v (division by zero count?)", got)
		}
		if got := h.FractionTotal(0, vclock.Second); got != 0 {
			t.Errorf("empty FractionTotal = %v", got)
		}
	})
	t.Run("single sample", func(t *testing.T) {
		h := NewIntervalHistogram()
		h.Add(3 * ms)
		if h.Count() != 1 || h.Total() != 3*ms {
			t.Errorf("count=%d total=%s", h.Count(), h.Total())
		}
		if got := h.FractionCount(0, vclock.Second); got != 1 {
			t.Errorf("FractionCount = %v, want 1", got)
		}
		peak := h.PeakBucket()
		lo, hi, unbounded := h.BucketRange(peak)
		if unbounded || lo > 3*ms || hi <= 3*ms {
			t.Errorf("peak bucket [%s,%s) unbounded=%v does not contain the sample", lo, hi, unbounded)
		}
	})
	t.Run("negative duration clamps to first bucket", func(t *testing.T) {
		h := NewIntervalHistogram()
		h.Add(-5 * ms)
		if h.Count() != 1 {
			t.Fatalf("count = %d", h.Count())
		}
		if h.PeakBucket() != 0 {
			t.Errorf("negative sample landed in bucket %d, want 0", h.PeakBucket())
		}
	})
}

package stats

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/vclock"
)

// LatencyRecorder accumulates duration samples and reports percentiles —
// used for the user-visible latencies the paper cares most about ("the
// time between when a key is pressed and the corresponding glyph is
// echoed to a window is very important to the usability of these
// systems"). The zero value is ready to use.
type LatencyRecorder struct {
	samples []vclock.Duration
	sorted  bool
	sum     vclock.Duration
}

// Add records one sample.
func (r *LatencyRecorder) Add(d vclock.Duration) {
	r.samples = append(r.samples, d)
	r.sorted = false
	r.sum += d
}

// Count returns the number of samples.
func (r *LatencyRecorder) Count() int { return len(r.samples) }

// Merge folds every sample of o into r, so cross-instance percentiles
// (a cluster's aggregate p99) are computed by exact nearest-rank over
// the union of the samples — no histogram approximation, no loss at the
// tail. o is left unchanged and may be merged into several recorders;
// merging a recorder into itself or merging nil is a no-op. The result
// is order-independent: merging instance recorders in any order yields
// identical percentiles, because Percentile sorts the union.
func (r *LatencyRecorder) Merge(o *LatencyRecorder) {
	if o == nil || r == o || len(o.samples) == 0 {
		return
	}
	r.samples = append(r.samples, o.samples...)
	r.sum += o.sum
	r.sorted = false
}

// Grow reserves room for n more samples, so a caller that knows how
// many are coming — a cluster summary merging every instance — sizes the
// recorder once instead of re-growing it geometrically. Negative n panics.
func (r *LatencyRecorder) Grow(n int) {
	r.samples = slices.Grow(r.samples, n)
}

// Mean returns the average sample, or 0 if empty.
func (r *LatencyRecorder) Mean() vclock.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	return r.sum / vclock.Duration(len(r.samples))
}

// Max returns the largest sample, or 0 if empty.
func (r *LatencyRecorder) Max() vclock.Duration {
	return r.Percentile(1)
}

// Percentile returns the p-quantile (0 <= p <= 1) by nearest-rank, or 0
// if empty. Out-of-range and NaN p clamp to the nearest valid quantile —
// int(NaN * n) is a huge negative index, not a graceful zero.
func (r *LatencyRecorder) Percentile(p float64) vclock.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	if !r.sorted {
		slices.Sort(r.samples)
		r.sorted = true
	}
	i := int(clampP(p) * float64(len(r.samples)-1))
	return r.samples[i]
}

// clampP maps a requested quantile into [0, 1]: NaN and negative p to
// 0, p above 1 to 1.
func clampP(p float64) float64 {
	if p < 0 || math.IsNaN(p) {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// String summarizes as "n=120 p50=1.9ms p95=3.1ms max=52ms".
func (r *LatencyRecorder) String() string {
	if len(r.samples) == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d p50=%s p95=%s max=%s",
		r.Count(), r.Percentile(0.5), r.Percentile(0.95), r.Max())
}

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
	// placed[:nplaced] lists, ascending, ranks k that Percentile has put
	// in their sorted position: samples[k] is the k-th smallest sample,
	// no sample before it is larger and none after it is smaller. Each
	// Percentile selects only within the gap between the two placed ranks
	// around the one it wants, and records its rank while there is room:
	// a summary that reads p50, p95 and p99 in turn selects the last in
	// the top twentieth. Two entries keep a workload.Server, which embeds
	// a recorder, inside its allocation size class. Add and Merge clear
	// the list.
	placed  [2]int
	nplaced int
	sum     vclock.Duration
	max     vclock.Duration
}

// Add records one sample.
func (r *LatencyRecorder) Add(d vclock.Duration) {
	if len(r.samples) == 0 || d > r.max {
		r.max = d
	}
	r.samples = append(r.samples, d)
	r.nplaced = 0
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
// identical percentiles, because Percentile ranks the union.
func (r *LatencyRecorder) Merge(o *LatencyRecorder) {
	if o == nil || r == o || len(o.samples) == 0 {
		return
	}
	if len(r.samples) == 0 || o.max > r.max {
		r.max = o.max
	}
	r.samples = append(r.samples, o.samples...)
	r.nplaced = 0
	r.sum += o.sum
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
func (r *LatencyRecorder) Max() vclock.Duration { return r.max }

// Percentile returns the p-quantile (0 <= p <= 1) by nearest-rank, or 0
// if empty. Out-of-range and NaN p clamp to the nearest valid quantile —
// int(NaN * n) is a huge negative index, not a graceful zero.
//
// The nearest-rank sample is one order statistic, so Percentile selects
// it instead of sorting: expected linear time in the gap between the
// ranks earlier calls placed, which shrinks as a summary reads p50, p95
// and p99 in turn.
func (r *LatencyRecorder) Percentile(p float64) vclock.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	k := int(clampP(p) * float64(len(r.samples)-1))
	placed := r.placed[:r.nplaced]
	j, found := slices.BinarySearch(placed, k)
	if !found {
		lo, hi := 0, len(r.samples)-1
		if j > 0 {
			lo = placed[j-1] + 1
		}
		if j < len(placed) {
			hi = placed[j] - 1
		}
		selectRank(r.samples, lo, hi, k, selectRounds)
		if n := r.nplaced; n < len(r.placed) {
			copy(r.placed[j+1:n+1], r.placed[j:n])
			r.placed[j] = k
			r.nplaced++
		}
	}
	return r.samples[k]
}

// selectRounds bounds selectRank's partitioning rounds. Median-of-three
// pivots make a long run of bad splits unlikely on any real input
// (sorted, reversed, organ-pipe and random inputs of 100k samples took
// at most 19 rounds), and the bound caps an adversarial one at that
// many linear passes and one sort.
const selectRounds = 64

// selectRank permutes s[lo..hi] so that s[k] holds the value it would
// hold were the range sorted, with nothing larger before it and nothing
// smaller after it. It is a quickselect with a three-way partition,
// since latencies under a constant service time are mostly equal, and
// pivots the median of the range's quartile samples: the range ends are
// what a previous selection and the samples added since leave in order,
// and sorted, reversed and organ-pipe inputs defeat end pivots too.
// After rounds partitions it sorts what is left.
func selectRank(s []vclock.Duration, lo, hi, k, rounds int) {
	for ; lo < hi; rounds-- {
		if rounds <= 0 {
			slices.Sort(s[lo : hi+1])
			return
		}
		q := (hi - lo) / 4
		a, b, c := s[lo+q], s[lo+2*q], s[lo+3*q]
		if a > b {
			a, b = b, a
		}
		pivot := min(b, max(a, c))
		// Dijkstra's partition: s[lo:lt] < pivot, s[lt:i] == pivot,
		// s[gt+1:hi+1] > pivot.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch v := s[i]; {
			case v < pivot:
				s[lt], s[i] = v, s[lt]
				lt++
				i++
			case v > pivot:
				s[gt], s[i] = v, s[gt]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return
		}
	}
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

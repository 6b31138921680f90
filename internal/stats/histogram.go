package stats

import (
	"fmt"
	"strings"

	"repro/internal/vclock"
)

// Histogram accumulates durations into buckets with fixed upper bounds,
// tracking both counts and summed totals per bucket. It backs the
// execution-interval analysis of §3 of the paper (the bimodal 3 ms /
// 45 ms distribution and the share of total execution time accumulated in
// 45–50 ms intervals).
type Histogram struct {
	// bounds are ascending exclusive upper limits; bucket i holds values
	// in [bounds[i-1], bounds[i]). A final overflow bucket holds values
	// >= bounds[len-1].
	bounds  []vclock.Duration
	buckets []bucket // len(bounds)+1, the last the overflow bucket
}

// bucket is one bucket's count of recorded values and their sum.
type bucket struct {
	count int64
	total vclock.Duration
}

// NewHistogram creates a histogram with the given ascending bucket upper
// bounds. It panics on empty or non-ascending bounds. The histogram
// keeps the bounds slice itself rather than a copy, so histograms built
// from one slice (NewHistogram(shared...)) share it; the caller must not
// modify the slice afterwards.
func NewHistogram(bounds ...vclock.Duration) *Histogram {
	if len(bounds) == 0 {
		panic("stats: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must ascend")
		}
	}
	return &Histogram{bounds: bounds, buckets: make([]bucket, len(bounds)+1)}
}

// NewIntervalHistogram returns the bucketing used for execution-interval
// analysis: 1 ms bins to 10 ms, then 5 ms bins to 60 ms, then overflow.
func NewIntervalHistogram() *Histogram {
	var bounds []vclock.Duration
	for ms := 1; ms <= 10; ms++ {
		bounds = append(bounds, vclock.Duration(ms)*vclock.Millisecond)
	}
	for ms := 15; ms <= 60; ms += 5 {
		bounds = append(bounds, vclock.Duration(ms)*vclock.Millisecond)
	}
	return NewHistogram(bounds...)
}

// Add records one duration.
func (h *Histogram) Add(d vclock.Duration) {
	b := &h.buckets[h.bucketOf(d)]
	b.count++
	b.total += d
}

// bucketOf returns the index of the first bound above d, len(bounds) for
// the overflow bucket: a binary search over the ascending bounds.
func (h *Histogram) bucketOf(d vclock.Duration) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if d < h.bounds[m] {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// Buckets returns the number of buckets, including the overflow bucket.
func (h *Histogram) Buckets() int { return len(h.buckets) }

// BucketRange returns bucket i's [lo, hi) range; the overflow bucket's hi
// is vclock.Never's duration equivalent, reported as lo itself with
// unbounded=true.
func (h *Histogram) BucketRange(i int) (lo, hi vclock.Duration, unbounded bool) {
	if i > 0 {
		lo = h.bounds[i-1]
	}
	if i == len(h.bounds) {
		return lo, 0, true
	}
	return lo, h.bounds[i], false
}

// BucketCount returns the number of values recorded in bucket i.
func (h *Histogram) BucketCount(i int) int64 { return h.buckets[i].count }

// Count returns the total number of recorded values.
func (h *Histogram) Count() int64 {
	var n int64
	for _, b := range h.buckets {
		n += b.count
	}
	return n
}

// Total returns the sum of all recorded values.
func (h *Histogram) Total() vclock.Duration {
	var t vclock.Duration
	for _, b := range h.buckets {
		t += b.total
	}
	return t
}

// FractionCount returns the fraction of recorded values lying in buckets
// fully contained in [lo, hi). Bounds should coincide with bucket edges;
// partially overlapped buckets are excluded.
func (h *Histogram) FractionCount(lo, hi vclock.Duration) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	var in int64
	for i, b := range h.buckets {
		blo, bhi, unbounded := h.BucketRange(i)
		if blo >= lo && !unbounded && bhi <= hi {
			in += b.count
		}
	}
	return float64(in) / float64(n)
}

// FractionTotal returns the fraction of summed duration lying in buckets
// fully contained in [lo, hi).
func (h *Histogram) FractionTotal(lo, hi vclock.Duration) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	var in vclock.Duration
	for i, b := range h.buckets {
		blo, bhi, unbounded := h.BucketRange(i)
		if blo >= lo && !unbounded && bhi <= hi {
			in += b.total
		}
	}
	return float64(in) / float64(t)
}

// PeakBucket returns the index of the bucket with the highest count
// (ties broken toward the smaller bucket), or -1 if empty.
func (h *Histogram) PeakBucket() int {
	best, bestCount := -1, int64(0)
	for i, b := range h.buckets {
		if b.count > bestCount {
			best, bestCount = i, b.count
		}
	}
	return best
}

// String renders the non-empty buckets as an ASCII bar chart.
func (h *Histogram) String() string {
	var sb strings.Builder
	total := h.Count()
	if total == 0 {
		return "(empty histogram)"
	}
	var max int64
	for _, b := range h.buckets {
		if b.count > max {
			max = b.count
		}
	}
	for i, b := range h.buckets {
		c := b.count
		if c == 0 {
			continue
		}
		lo, hi, unbounded := h.BucketRange(i)
		label := fmt.Sprintf("%8s-%-8s", lo, hi)
		if unbounded {
			label = fmt.Sprintf("%8s+%-8s", lo, "")
		}
		bar := strings.Repeat("#", int(40*c/max))
		fmt.Fprintf(&sb, "%s %7d (%5.1f%%) %s\n", label, c, 100*float64(c)/float64(total), bar)
	}
	return sb.String()
}

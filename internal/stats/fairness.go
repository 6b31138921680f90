package stats

import (
	"math"
	"sort"

	"repro/internal/vclock"
)

// JainFairness returns Jain's fairness index over the allocations xs:
//
//	J = (Σx)² / (n · Σx²)
//
// J is 1 when every x is equal (perfect fairness) and approaches 1/n as
// one allocation dominates — the standard scalar the S-series experiments
// use to compare how evenly a policy divides service across SLO classes.
//
// Edge cases follow the same defensive conventions as Percentile: an
// empty slice returns 0 (no allocations, no fairness to speak of); NaN,
// infinite, and negative samples are dropped before the computation
// rather than poisoning it; a single surviving sample is trivially fair
// (1); and an all-zero population — everyone equally starved — is also
// perfectly fair, returning 1 instead of 0/0.
func JainFairness(xs []float64) float64 {
	var sum, sumSq float64
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			continue
		}
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 {
		return 0
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// ClassLatency groups latency samples by SLO class — one LatencyRecorder
// per class name, created lazily on first Add. The zero value is ready to
// use. It is the per-class companion to LatencyRecorder: the S-series
// experiments record every request under its class ("interactive",
// "batch", ...) and report per-class percentiles plus a Jain index over
// the class means.
type ClassLatency struct {
	classes map[string]*LatencyRecorder
}

// Add records one sample under the given class.
func (c *ClassLatency) Add(class string, d vclock.Duration) {
	if c.classes == nil {
		c.classes = map[string]*LatencyRecorder{}
	}
	r := c.classes[class]
	if r == nil {
		r = &LatencyRecorder{}
		c.classes[class] = r
	}
	r.Add(d)
}

// Set makes r the recorder for class, live: later adds to r show in c,
// and no sample is copied. An empty r leaves class without a recorder,
// so Class keeps returning nil for a class with no samples.
func (c *ClassLatency) Set(class string, r *LatencyRecorder) {
	if r.Count() == 0 {
		return
	}
	if c.classes == nil {
		c.classes = map[string]*LatencyRecorder{}
	}
	c.classes[class] = r
}

// Class returns the recorder for a class, or nil if the class has no
// samples. The returned recorder is live: adding to it adds to c.
func (c *ClassLatency) Class(name string) *LatencyRecorder {
	return c.classes[name]
}

// Classes lists the class names with at least one sample, sorted, so
// reports iterate deterministically.
func (c *ClassLatency) Classes() []string {
	names := make([]string, 0, len(c.classes))
	for name := range c.classes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Count returns the total samples across all classes.
func (c *ClassLatency) Count() int {
	n := 0
	for _, r := range c.classes {
		n += r.Count()
	}
	return n
}

// Merge folds every class of o into c, class by class, with
// LatencyRecorder.Merge's exact-union semantics: percentiles over merged
// recorders equal percentiles over the concatenated samples, in any merge
// order. o is left unchanged; merging nil or c itself is a no-op.
func (c *ClassLatency) Merge(o *ClassLatency) {
	if o == nil || c == o {
		return
	}
	for class, r := range o.classes {
		if r.Count() == 0 {
			continue
		}
		if c.classes == nil {
			c.classes = map[string]*LatencyRecorder{}
		}
		mine := c.classes[class]
		if mine == nil {
			mine = &LatencyRecorder{}
			c.classes[class] = mine
		}
		mine.Merge(r)
	}
}

// MeanByClass returns each class's mean latency in microseconds, ordered
// like Classes — the canonical input to JainFairness when the question is
// "how evenly did the policy spread latency across classes".
func (c *ClassLatency) MeanByClass() []float64 {
	names := c.Classes()
	means := make([]float64, len(names))
	for i, name := range names {
		means[i] = float64(c.classes[name].Mean())
	}
	return means
}

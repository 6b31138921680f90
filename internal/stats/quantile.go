package stats

import "repro/internal/vclock"

// Quantile tracks one fixed nearest-rank quantile of a growing sample
// stream: after every Add, Value is exactly the sample a LatencyRecorder
// holding the same samples would return from Percentile(p). It keeps the
// lowest int(p·(n−1))+1 samples in a max-heap, whose top is the value,
// and the rest in a min-heap, so Add costs O(log n) and Value O(1) where
// Percentile selects over the whole history on every read after an Add.
// The cluster driver uses it for the running p99 behind its hedge delay.
type Quantile struct {
	p  float64
	lo durHeap // max-heap: the lowest int(p·(n−1))+1 samples
	hi durHeap // min-heap: every other sample
}

// NewQuantile returns an empty tracker for the p-quantile. p clamps the
// way Percentile clamps it: NaN and negative p to 0, p above 1 to 1.
func NewQuantile(p float64) *Quantile {
	return &Quantile{p: clampP(p), lo: durHeap{max: true}}
}

// Add records one sample.
func (q *Quantile) Add(d vclock.Duration) {
	if len(q.lo.s) > 0 && d <= q.lo.s[0] {
		q.lo.push(d)
	} else {
		q.hi.push(d)
	}
	k := int(q.p*float64(q.Count()-1)) + 1
	for len(q.lo.s) > k {
		q.hi.push(q.lo.pop())
	}
	for len(q.lo.s) < k {
		q.lo.push(q.hi.pop())
	}
}

// Count returns the number of samples.
func (q *Quantile) Count() int { return len(q.lo.s) + len(q.hi.s) }

// Value returns the tracked quantile, or 0 if empty.
func (q *Quantile) Value() vclock.Duration {
	if len(q.lo.s) == 0 {
		return 0
	}
	return q.lo.s[0]
}

// durHeap is a binary heap of durations, a max-heap when max is set and
// a min-heap otherwise. The sifts are written over the slice directly:
// container/heap would box every pushed and popped value into an any.
type durHeap struct {
	s   []vclock.Duration
	max bool
}

// above reports whether element i belongs nearer the root than j.
func (h *durHeap) above(i, j int) bool {
	if h.max {
		return h.s[i] > h.s[j]
	}
	return h.s[i] < h.s[j]
}

func (h *durHeap) push(d vclock.Duration) {
	h.s = append(h.s, d)
	for i := len(h.s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.above(i, parent) {
			break
		}
		h.s[i], h.s[parent] = h.s[parent], h.s[i]
		i = parent
	}
}

func (h *durHeap) pop() vclock.Duration {
	top := h.s[0]
	last := len(h.s) - 1
	h.s[0] = h.s[last]
	h.s = h.s[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && h.above(r, c) {
			c = r
		}
		if !h.above(c, i) {
			break
		}
		h.s[i], h.s[c] = h.s[c], h.s[i]
		i = c
	}
	return top
}

package stats

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/vclock"
)

// sortedOracle is the reference LatencyRecorder: a plain sample list
// that answers by sorting a copy. It shares nothing with the recorder's
// selection path.
type sortedOracle []vclock.Duration

func (o sortedOracle) percentile(p float64) vclock.Duration {
	if len(o) == 0 {
		return 0
	}
	s := slices.Clone(o)
	slices.Sort(s)
	switch {
	case math.IsNaN(p) || p < 0:
		p = 0
	case p > 1:
		p = 1
	}
	return s[int(p*float64(len(s)-1))]
}

func (o sortedOracle) max() vclock.Duration {
	if len(o) == 0 {
		return 0
	}
	return slices.Max(o)
}

// checkOracle compares every read of r with the oracle.
func checkOracle(t *testing.T, r *LatencyRecorder, o sortedOracle, p float64) {
	t.Helper()
	if got, want := r.Percentile(p), o.percentile(p); got != want {
		t.Fatalf("n=%d: Percentile(%v) = %d, sorted copy says %d", len(o), p, got, want)
	}
	if got, want := r.Max(), o.max(); got != want {
		t.Fatalf("n=%d: Max = %d, sorted copy says %d", len(o), got, want)
	}
	if r.Count() != len(o) {
		t.Fatalf("Count = %d, oracle holds %d", r.Count(), len(o))
	}
}

// selectShapes are the sample orders selection must handle: ties that
// a two-way partition would degrade on, presorted and reversed runs that
// defeat a first-element pivot, and an organ pipe, which defeats a
// middle one.
func selectShapes(n int) map[string][]vclock.Duration {
	shapes := map[string][]vclock.Duration{}
	add := func(name string, f func(i int) vclock.Duration) {
		s := make([]vclock.Duration, n)
		for i := range s {
			s[i] = f(i)
		}
		shapes[name] = s
	}
	add("equal", func(int) vclock.Duration { return 7 })
	add("two-values", func(i int) vclock.Duration { return vclock.Duration(i*7919%3/2) * 1000 })
	add("sorted", func(i int) vclock.Duration { return vclock.Duration(i) })
	add("reversed", func(i int) vclock.Duration { return vclock.Duration(n - i) })
	add("organ-pipe", func(i int) vclock.Duration { return vclock.Duration(min(i, n-1-i)) })
	add("scattered", func(i int) vclock.Duration { return vclock.Duration(i * 7919 % 101) })
	return shapes
}

// TestSelectRank checks selectRank against a sorted copy at every rank
// of every shape, with round budgets that force the sort fallback at
// once, after one or two partitions, and never: s[k] must hold the k-th
// smallest sample, with nothing larger before it and nothing smaller
// after it.
func TestSelectRank(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 200} {
		for name, shape := range selectShapes(n) {
			want := slices.Clone(shape)
			slices.Sort(want)
			for _, rounds := range []int{0, 1, 2, selectRounds} {
				t.Run(fmt.Sprintf("%s/n=%d/rounds=%d", name, n, rounds), func(t *testing.T) {
					for k := 0; k < n; k++ {
						s := slices.Clone(shape)
						selectRank(s, 0, n-1, k, rounds)
						if s[k] != want[k] {
							t.Fatalf("k=%d: s[k] = %d, sorted copy says %d", k, s[k], want[k])
						}
						if m := slices.Max(s[:k+1]); m != s[k] {
							t.Fatalf("k=%d: %d before a rank-k value of %d", k, m, s[k])
						}
						if m := slices.Min(s[k:]); m != s[k] {
							t.Fatalf("k=%d: %d after a rank-k value of %d", k, m, s[k])
						}
						got := slices.Clone(s)
						slices.Sort(got)
						if !slices.Equal(got, want) {
							t.Fatalf("k=%d: selection changed the sample multiset", k)
						}
					}
				})
			}
		}
	}
}

// TestPercentileShapes reads a summary's quantiles, and then every rank,
// from recorders filled in each shape, against the sorted copy.
func TestPercentileShapes(t *testing.T) {
	const n = 500
	for name, shape := range selectShapes(n) {
		t.Run(name, func(t *testing.T) {
			var r LatencyRecorder
			for _, d := range shape {
				r.Add(d)
			}
			o := sortedOracle(shape)
			for _, p := range quantilePs {
				checkOracle(t, &r, o, p)
			}
			for k := n - 1; k >= 0; k -= 7 {
				checkOracle(t, &r, o, float64(k)/float64(n-1))
			}
		})
	}
}

// FuzzPercentileDifferential decodes its input into an interleaving of
// Add, Merge and Percentile calls and checks every read against a
// sorted copy of the same samples. Each op is one byte, b%4 selecting:
// 0 adds the next byte as a signed sample; 1 merges a donor built from
// the next byte's low five bits worth of following bytes (the donor is
// read once first, so Merge meets a partly ordered donor); 2 reads
// Percentile at p = (next byte − 20)/200, so 20 is p=0, 220 is p=1,
// bytes outside [20, 220] are out of range and 255 is NaN; 3 selects a
// rank of a copy of the samples with the op's high bits as the round
// budget, so small budgets drive the sort fallback. `make check` runs
// this target in the fuzz-short pass.
func FuzzPercentileDifferential(f *testing.F) {
	f.Add([]byte{0, 5, 0, 3, 0, 9, 2, 120, 2, 218, 2, 255, 2, 0, 2, 250})
	f.Add([]byte{1, 6, 9, 9, 9, 9, 9, 9, 2, 120, 0, 9, 2, 220, 3, 3})
	f.Add([]byte{1, 8, 1, 2, 3, 4, 5, 6, 7, 8, 2, 119, 2, 218, 1, 8, 8, 7, 6, 5, 4, 3, 2, 1, 2, 120, 7})
	f.Add([]byte{1, 9, 1, 2, 3, 4, 5, 4, 3, 2, 1, 2, 120, 2, 209, 2, 20, 0, 200, 2, 120, 3, 0})
	f.Add([]byte{1, 4, 0, 100, 0, 100, 2, 120, 2, 200, 1, 2, 100, 0, 2, 170, 3, 1})
	f.Add([]byte{1, 2, 0xf0, 0xf1, 2, 220, 0, 0xe0, 2, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		var r LatencyRecorder
		var o sortedOracle
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		for {
			op, ok := next()
			if !ok {
				return
			}
			switch op % 4 {
			case 0:
				b, _ := next()
				r.Add(vclock.Duration(int8(b)))
				o = append(o, vclock.Duration(int8(b)))
			case 1:
				n, _ := next()
				var donor LatencyRecorder
				for i := 0; i < int(n%32); i++ {
					b, _ := next()
					donor.Add(vclock.Duration(int8(b)))
					o = append(o, vclock.Duration(int8(b)))
				}
				donor.Percentile(0.5)
				r.Merge(&donor)
			case 2:
				b, _ := next()
				p := (float64(b) - 20) / 200
				if b == 255 {
					p = math.NaN()
				}
				checkOracle(t, &r, o, p)
			case 3:
				if len(o) == 0 {
					continue
				}
				s, want := slices.Clone(o), slices.Clone(o)
				slices.Sort(want)
				k := int(op/4) % len(s)
				selectRank(s, 0, len(s)-1, k, int(op/16))
				if s[k] != want[k] {
					t.Fatalf("selectRank(k=%d, rounds=%d) = %d, sorted copy says %d", k, op/16, s[k], want[k])
				}
			}
		}
	})
}

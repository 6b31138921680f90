package stats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vclock"
)

// quantilePs are the requested quantiles the differential covers: the
// ends, interior ranks (p99 is the hedge delay's), and the clamped
// inputs.
var quantilePs = []float64{0, 0.5, 0.95, 0.99, 1, math.NaN(), -1, 2}

// checkQuantileStream adds stream to a Quantile and to the sorting
// LatencyRecorder oracle and compares Count and Value against Count and
// Percentile(p) after every Add.
func checkQuantileStream(t *testing.T, p float64, stream []vclock.Duration) {
	t.Helper()
	q := NewQuantile(p)
	var oracle LatencyRecorder
	for i, d := range stream {
		q.Add(d)
		oracle.Add(d)
		if got, want := q.Value(), oracle.Percentile(p); got != want || q.Count() != oracle.Count() {
			t.Fatalf("p=%v after %d adds (last %v): value %v count %d, oracle %v count %d",
				p, i+1, d, got, q.Count(), want, oracle.Count())
		}
	}
}

func TestQuantileEmpty(t *testing.T) {
	for _, p := range quantilePs {
		q := NewQuantile(p)
		if q.Value() != 0 || q.Count() != 0 {
			t.Errorf("p=%v: empty tracker value %v count %d, want 0 and 0", p, q.Value(), q.Count())
		}
	}
}

// TestQuantileDifferential is the tracker's oracle: every stream shape
// must give Percentile's answer after every sample. Values come from a
// range of eight so ties are heavy, and each stream runs long enough to
// cross many counts at which the rank index int(p·(n−1)) steps and, for
// interior p, counts at which it holds still.
func TestQuantileDifferential(t *testing.T) {
	const n = 1000
	rng := rand.New(rand.NewSource(1))
	shapes := map[string]func(i int) vclock.Duration{
		"equal":      func(int) vclock.Duration { return 5 },
		"increasing": func(i int) vclock.Duration { return vclock.Duration(i) },
		"decreasing": func(i int) vclock.Duration { return vclock.Duration(n - i) },
		"ties":       func(int) vclock.Duration { return vclock.Duration(rng.Intn(8)) },
		"signed":     func(int) vclock.Duration { return vclock.Duration(rng.Intn(8) - 4) },
		"wide":       func(int) vclock.Duration { return vclock.Duration(rng.Int63n(1 << 40)) },
	}
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		for _, p := range quantilePs {
			stream := make([]vclock.Duration, n)
			for i := range stream {
				stream[i] = shapes[name](i)
			}
			t.Run(fmt.Sprintf("%s/p=%v", name, p), func(t *testing.T) {
				checkQuantileStream(t, p, stream)
			})
		}
	}
	// The stream length above must cover the rank index both stepping
	// and holding for every interior p.
	for _, p := range []float64{0.5, 0.95, 0.99} {
		steps, holds := 0, 0
		for c := 2; c <= n; c++ {
			if int(p*float64(c-1)) > int(p*float64(c-2)) {
				steps++
			} else {
				holds++
			}
		}
		if steps < 2 || holds < 2 {
			t.Errorf("p=%v: %d-sample streams cross %d steps and %d holds of the rank index", p, n, steps, holds)
		}
	}
}

// TestQuantileAddAllocs pins the hot path allocation-free: once the
// heaps have room, an Add only sifts within them.
func TestQuantileAddAllocs(t *testing.T) {
	const runs = 1000
	q := NewQuantile(0.99)
	q.lo.s = make([]vclock.Duration, 0, runs+1)
	q.hi.s = make([]vclock.Duration, 0, runs+1)
	d := vclock.Duration(0)
	if a := testing.AllocsPerRun(runs, func() {
		d = (d*7919 + 13) % 1000
		q.Add(d)
	}); a != 0 {
		t.Errorf("Quantile.Add: %v allocs per call, want 0", a)
	}
}

// FuzzQuantileDifferential decodes its input into a requested quantile
// and a sample stream and checks the tracker against Percentile after
// every Add. Byte 0 picks p = (b−20)/200, so 20 is p=0, 218 is p=0.99,
// 220 is p=1, and the bytes below 20 and above 220 are out of range;
// 255 is NaN. Every later byte is one signed sample, a range small
// enough that ties are the rule. `make check` runs this target in the
// fuzz-short pass.
func FuzzQuantileDifferential(f *testing.F) {
	f.Add([]byte{218, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{20, 9, 9, 9, 9, 9})
	f.Add([]byte{220, 200, 100, 50, 25})
	f.Add([]byte{120, 0, 255, 0, 255, 0, 255})
	f.Add([]byte{255, 3, 1, 2})
	f.Add([]byte{0, 3, 1, 2})
	f.Add([]byte{250, 3, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		p := (float64(data[0]) - 20) / 200
		if data[0] == 255 {
			p = math.NaN()
		}
		stream := make([]vclock.Duration, len(data)-1)
		for i, b := range data[1:] {
			stream[i] = vclock.Duration(int8(b))
		}
		checkQuantileStream(t, p, stream)
	})
}

// quantileBenchSizes are the history lengths the two Benchmarks below
// compare at: the tracker's Add is O(log n), the old pattern's sort is
// O(n log n) per read.
var quantileBenchSizes = []int{1_000, 10_000, 100_000}

// benchSamples is a fixed pool of latency-like samples for the
// benchmarks to cycle through.
func benchSamples() []vclock.Duration {
	rng := rand.New(rand.NewSource(1))
	s := make([]vclock.Duration, 1<<16)
	for i := range s {
		s[i] = vclock.Duration(rng.ExpFloat64() * float64(vclock.Millisecond))
	}
	return s
}

var benchSink vclock.Duration

// BenchmarkQuantileAdd times one Add plus one read of the p99 on a
// tracker holding between n and 2n samples (it is refilled to n,
// untimed, whenever it reaches 2n).
func BenchmarkQuantileAdd(b *testing.B) {
	samples := benchSamples()
	mask := len(samples) - 1
	for _, n := range quantileBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var q *Quantile
			fill := func() {
				q = NewQuantile(0.99)
				for i := 0; i < n; i++ {
					q.Add(samples[i&mask])
				}
			}
			fill()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if q.Count() == 2*n {
					b.StopTimer()
					fill()
					b.StartTimer()
				}
				q.Add(samples[(n+i)&mask])
				benchSink = q.Value()
			}
		})
	}
}

// BenchmarkPercentileAfterAdd times the pattern the tracker replaced:
// one Add then Percentile(0.99) on a recorder holding between n and 2n
// samples, which re-sorts the history on every read.
func BenchmarkPercentileAfterAdd(b *testing.B) {
	samples := benchSamples()
	mask := len(samples) - 1
	for _, n := range quantileBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var r *LatencyRecorder
			fill := func() {
				r = &LatencyRecorder{}
				for i := 0; i < n; i++ {
					r.Add(samples[i&mask])
				}
			}
			fill()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r.Count() == 2*n {
					b.StopTimer()
					fill()
					b.StartTimer()
				}
				r.Add(samples[(n+i)&mask])
				benchSink = r.Percentile(0.99)
			}
		})
	}
}

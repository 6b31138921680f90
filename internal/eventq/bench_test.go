package eventq

import (
	"testing"

	"repro/internal/vclock"
)

// The package-level microbenchmarks `make bench` reports. Each one pins
// a distinct wheel regime: the mostly-cancelled near-future churn, the
// same-timestamp batch drain, the cascade-heavy stride pattern, and the
// far-future heap spillover; a last one the timer-slot lifecycle.

// BenchmarkScheduleCancel: schedule 64 timers spanning every wheel
// level, cancel them all. The paper's dominant timer lifecycle — CV
// timeouts that are almost always cancelled before firing.
func BenchmarkScheduleCancel(b *testing.B) {
	var q Queue
	offsets := []vclock.Duration{3, 150, 20_000, 2_000_000} // µs, one per level
	handles := make([]Handle, 0, 64)
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handles = handles[:0]
		for j := 0; j < 64; j++ {
			t := vclock.Time(0).Add(offsets[j%len(offsets)] + vclock.Duration(j))
			handles = append(handles, q.Schedule(t, nop))
		}
		for _, h := range handles {
			q.Cancel(h)
		}
	}
}

// BenchmarkBatchDrain: 64 events at one timestamp drained through a
// single level-0 bucket — one bitmap lookup, then O(1) head unlinks.
func BenchmarkBatchDrain(b *testing.B) {
	var q Queue
	fired := 0
	nop := func() { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := vclock.Time(i + 1)
		for j := 0; j < 64; j++ {
			q.Schedule(at, nop)
		}
		for {
			do, _, ok := q.PopDo()
			if !ok {
				break
			}
			do()
		}
	}
	b.StopTimer()
	if fired != b.N*64 {
		b.Fatalf("fired %d of %d", fired, b.N*64)
	}
}

// BenchmarkStridePop: schedule/pop pairs striding across level-0 and
// level-1 windows, forcing regular cascades — the steady-state traffic
// of short timers and arrivals.
func BenchmarkStridePop(b *testing.B) {
	var q Queue
	nop := func() {}
	now := vclock.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Schedule(now.Add(vclock.Duration(17+i%101)), nop)
		if _, when, ok := q.PopDo(); ok {
			now = when
		}
	}
}

// BenchmarkHeapSpillover: events beyond the 2^24-tick wheel horizon take
// the indexed min-heap path; schedule/cancel 64 of them per iteration.
func BenchmarkHeapSpillover(b *testing.B) {
	var q Queue
	nop := func() {}
	handles := make([]Handle, 0, 64)
	far := vclock.Time(0).Add(1 << 25) // past the wheel horizon
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handles = handles[:0]
		for j := 0; j < 64; j++ {
			handles = append(handles, q.Schedule(far.Add(vclock.Duration(j)), nop))
		}
		for _, h := range handles {
			q.Cancel(h)
		}
	}
}

// BenchmarkTimerSlot: two slots used the way one simulated CPU uses its
// quantum and its compute completion — arm the quantum at dispatch, arm
// and fire the completion, disarm the quantum at block — beside a
// level-0 wheel event per op.
func BenchmarkTimerSlot(b *testing.B) {
	var q Queue
	var quantum, completion Timer
	nop := func() {}
	q.Register(&quantum, nop)
	q.Register(&completion, nop)
	now := vclock.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quantum.Arm(now.Add(50_000))
		completion.Arm(now.Add(250))
		q.Schedule(now.Add(300), nop)
		_, now, _ = q.PopDo() // the completion
		quantum.Disarm()
		_, now, _ = q.PopDo() // the wheel event
	}
}

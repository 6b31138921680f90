package eventq

import (
	"fmt"
	"testing"

	"repro/internal/vclock"
)

// The package-level microbenchmarks `make bench` reports. Each one pins
// a distinct heap pattern: schedule-then-cancel churn, a same-timestamp
// batch drain and a steady schedule/pop stride; a last one the timer-slot
// lifecycle.

// BenchmarkScheduleCancel: schedule 64 timers from microseconds to
// seconds ahead, then cancel them all, each Cancel a sift from the
// middle of the heap. CV timeouts notified before their deadline follow
// this lifecycle.
func BenchmarkScheduleCancel(b *testing.B) {
	var q Queue
	offsets := []vclock.Duration{3, 150, 20_000, 2_000_000} // µs
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

// BenchmarkBatchDrain: 64 events at one timestamp drained in insertion
// order, the seq tie-break deciding every compare.
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

// BenchmarkStridePop: schedule/pop pairs at varying short offsets, one
// event queued at a time, as short timers and arrivals produce.
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

// BenchmarkTimerSlot: two slots used the way one simulated CPU uses its
// quantum and its compute completion — arm the quantum at dispatch, arm
// and fire the completion, disarm the quantum at block — beside a
// scheduled event per op. The slots=5 case adds three slots that
// stay armed past every CPU timer, as a one-CPU slo-hybrid world's aging
// tick and two cohort arrival feeds do, so each rescan of the earliest
// slot walks five.
func BenchmarkTimerSlot(b *testing.B) {
	for _, slots := range []int{2, 5} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			var q Queue
			var quantum, completion Timer
			nop := func() {}
			q.Register(&quantum, nop)
			q.Register(&completion, nop)
			feeds := make([]Timer, slots-2)
			for i := range feeds {
				q.Register(&feeds[i], nop)
				feeds[i].Arm(vclock.Never - vclock.Time(i+1))
			}
			now := vclock.Time(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				quantum.Arm(now.Add(50_000))
				completion.Arm(now.Add(250))
				q.Schedule(now.Add(300), nop)
				_, now, _ = q.PopDo() // the completion
				quantum.Disarm()
				_, now, _ = q.PopDo() // the scheduled event
			}
		})
	}
}

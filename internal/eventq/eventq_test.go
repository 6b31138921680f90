package eventq

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/vclock"
)

// drain pops every event, returning the timestamps in pop order and
// running the callbacks.
func drain(q *Queue) []vclock.Time {
	var out []vclock.Time
	for {
		do, when, ok := q.PopDo()
		if !ok {
			return out
		}
		out = append(out, when)
		if do != nil {
			do()
		}
	}
}

func TestPopOrder(t *testing.T) {
	var q Queue
	var got []int
	q.Schedule(30, func() { got = append(got, 3) })
	q.Schedule(10, func() { got = append(got, 1) })
	q.Schedule(20, func() { got = append(got, 2) })
	drain(&q)
	want := []int{1, 2, 3}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("pop order = %v, want %v", got, want)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		q.Schedule(100, func() { got = append(got, i) })
	}
	drain(&q)
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-timestamp events delivered out of insertion order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	ran := false
	e := q.Schedule(10, func() { ran = true })
	q.Schedule(20, func() {})
	q.Cancel(e)
	if e.Valid() {
		t.Fatal("canceled handle still valid")
	}
	if q.NextTime() != 20 {
		t.Fatalf("NextTime = %v, want 20", q.NextTime())
	}
	if _, when, ok := q.PopDo(); !ok || when != 20 {
		t.Fatalf("PopDo returned when=%v ok=%v, want event at 20", when, ok)
	}
	if _, _, ok := q.PopDo(); ok {
		t.Fatal("expected empty queue")
	}
	if ran {
		t.Fatal("canceled event ran")
	}
	// Double cancel and the zero Handle must not panic.
	q.Cancel(e)
	q.Cancel(Handle{})
}

// A Handle kept across the event's delivery and the struct's recycling
// must go stale rather than cancel the recycled event.
func TestStaleHandleAfterRecycle(t *testing.T) {
	var q Queue
	h := q.Schedule(10, nil)
	if _, _, ok := q.PopDo(); !ok {
		t.Fatal("pop failed")
	}
	if h.Valid() {
		t.Fatal("handle to popped event still valid")
	}
	// The pool reuses the struct for the next Schedule; the stale handle
	// must not be able to cancel it.
	h2 := q.Schedule(20, nil)
	q.Cancel(h)
	if !h2.Valid() {
		t.Fatal("stale Cancel revoked a recycled event")
	}
	q.Cancel(h2)
	if h2.Valid() {
		t.Fatal("fresh Cancel had no effect")
	}
}

func TestNextTimeEmpty(t *testing.T) {
	var q Queue
	if q.NextTime() != vclock.Never {
		t.Fatalf("empty NextTime = %v, want Never", q.NextTime())
	}
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("zero queue should be empty")
	}
}

func TestLenExcludesCanceled(t *testing.T) {
	var q Queue
	a := q.Schedule(1, func() {})
	q.Schedule(2, func() {})
	q.Cancel(a)
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	if q.Empty() {
		t.Fatal("queue with one live event reported empty")
	}
}

// Property: popping a randomly scheduled set yields a sequence sorted by
// time, and every non-canceled event is delivered exactly once.
func TestPopSortedProperty(t *testing.T) {
	f := func(times []int16, seed int64) bool {
		var q Queue
		rng := rand.New(rand.NewSource(seed))
		delivered := 0
		var handles []Handle
		for _, ti := range times {
			handles = append(handles, q.Schedule(vclock.Time(int64(ti)+1<<15), func() { delivered++ }))
		}
		canceled := 0
		for _, h := range handles {
			if rng.Intn(4) == 0 {
				q.Cancel(h)
				canceled++
			}
		}
		popped := drain(&q)
		if len(popped) != len(times)-canceled || delivered != len(popped) {
			return false
		}
		return sort.SliceIsSorted(popped, func(i, j int) bool { return popped[i] < popped[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInterleavedScheduleAndPop(t *testing.T) {
	var q Queue
	q.Schedule(10, nil)
	q.Schedule(5, nil)
	if _, when, _ := q.PopDo(); when != 5 {
		t.Fatalf("first pop at %v, want 5", when)
	}
	// Schedule earlier than an already queued event.
	q.Schedule(7, nil)
	if _, when, _ := q.PopDo(); when != 7 {
		t.Fatalf("second pop at %v, want 7", when)
	}
	if _, when, _ := q.PopDo(); when != 10 {
		t.Fatalf("third pop at %v, want 10", when)
	}
}

// The pool must keep steady-state scheduling allocation-free: after a
// warm-up, a schedule/pop cycle reuses recycled event structs.
func TestPoolingAllocFree(t *testing.T) {
	var q Queue
	fn := func() {}
	for i := 0; i < 64; i++ { // warm the pool and the heap slice
		q.Schedule(vclock.Time(i), fn)
	}
	drain(&q)
	now := vclock.Time(1000)
	allocs := testing.AllocsPerRun(1000, func() {
		h := q.Schedule(now, fn)
		_ = h
		q.PopDo()
		now++
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/pop allocates %.1f objects/op, want 0", allocs)
	}
}

// Cancel from the middle of the heap must preserve ordering of the rest.
func TestCancelMiddle(t *testing.T) {
	var q Queue
	var hs []Handle
	for _, when := range []vclock.Time{50, 10, 40, 20, 30, 60, 15} {
		hs = append(hs, q.Schedule(when, nil))
	}
	q.Cancel(hs[2]) // 40
	q.Cancel(hs[3]) // 20
	got := drain(&q)
	want := []vclock.Time{10, 15, 30, 50, 60}
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
}

// TestTimerRearmsFromCallback drives a slot the way a CPU's quantum
// uses it: the callback re-arms its own slot, and Len, Empty and
// NextTime count the armed slot as one pending event.
func TestTimerRearmsFromCallback(t *testing.T) {
	var q Queue
	var slot Timer
	var fired []vclock.Time
	q.Register(&slot, func() {
		if n := len(fired); n < 3 {
			slot.Arm(fired[n-1].Add(50))
		}
	})
	if !q.Empty() || slot.Armed() {
		t.Fatalf("fresh slot: Empty = %v, Armed = %v", q.Empty(), slot.Armed())
	}
	slot.Arm(50)
	q.Schedule(75, func() {})
	if q.Len() != 2 || q.NextTime() != 50 {
		t.Fatalf("Len = %d, NextTime = %v; want 2, 50", q.Len(), q.NextTime())
	}
	for {
		do, when, ok := q.PopDo()
		if !ok {
			break
		}
		if when != 75 {
			fired = append(fired, when)
		}
		do()
	}
	if want := []vclock.Time{50, 100, 150}; len(fired) != 3 || fired[0] != want[0] || fired[1] != want[1] || fired[2] != want[2] {
		t.Fatalf("slot fired at %v, want %v", fired, want)
	}
	if slot.Armed() || !q.Empty() {
		t.Fatalf("after the last firing: Armed = %v, Len = %d", slot.Armed(), q.Len())
	}
	slot.Disarm() // disarming a disarmed slot is a no-op
	if q.Len() != 0 {
		t.Fatalf("Disarm of a disarmed slot changed Len to %d", q.Len())
	}
}

// TestTimerTakesScheduleSeq checks the tie rule: an armed slot orders
// among same-instant events exactly as the event Schedule would have
// made at the moment of arming, and a re-arm moves it behind everything
// scheduled in between.
func TestTimerTakesScheduleSeq(t *testing.T) {
	var q Queue
	var got []string
	var a, b Timer
	q.Register(&a, func() { got = append(got, "a") })
	q.Register(&b, func() { got = append(got, "b") })
	q.Schedule(10, func() { got = append(got, "e1") })
	a.Arm(10)
	b.Arm(10)
	q.Schedule(10, func() { got = append(got, "e2") })
	a.Arm(10) // re-arm: now behind e2
	drain(&q)
	if want := "e1 b e2 a"; fmt.Sprint(got) != "["+want+"]" {
		t.Fatalf("pop order %v, want [%s]", got, want)
	}
}

package stats

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// randomEvents builds a plausible monotonic event stream.
func randomEvents(seed int64, n int) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	var evs []trace.Event
	var tm vclock.Time
	live := []int32{}
	next := int32(1)
	for i := 0; i < n; i++ {
		tm = tm.Add(vclock.Duration(rng.Int63n(int64(5 * vclock.Millisecond))))
		switch rng.Intn(8) {
		case 0: // fork
			parent := int32(trace.NoThread)
			if len(live) > 0 && rng.Intn(2) == 0 {
				parent = live[rng.Intn(len(live))]
			}
			evs = append(evs, trace.Event{Time: tm, Kind: trace.KindFork, Thread: parent, Arg: int64(next), Aux: int64(1 + rng.Intn(7))})
			live = append(live, next)
			next++
		case 1: // exit
			if len(live) > 0 {
				i := rng.Intn(len(live))
				evs = append(evs, trace.Event{Time: tm, Kind: trace.KindExit, Thread: live[i]})
				live = append(live[:i], live[i+1:]...)
			}
		case 2: // switch
			to := int64(trace.NoThread)
			if len(live) > 0 {
				to = int64(live[rng.Intn(len(live))])
			}
			evs = append(evs, trace.Event{Time: tm, Kind: trace.KindSwitch, Thread: int32(to), Arg: trace.NoThread, Aux: int64(rng.Intn(2))})
		case 3:
			if len(live) > 0 {
				evs = append(evs, trace.Event{Time: tm, Kind: trace.KindMLEnter, Thread: live[rng.Intn(len(live))], Arg: int64(rng.Intn(20)), Aux: int64(rng.Intn(2))})
			}
		case 4:
			if len(live) > 0 {
				evs = append(evs, trace.Event{Time: tm, Kind: trace.KindWait, Thread: live[rng.Intn(len(live))], Arg: int64(rng.Intn(10)), Aux: -1})
			}
		case 5:
			if len(live) > 0 {
				evs = append(evs, trace.Event{Time: tm, Kind: trace.KindWaitDone, Thread: live[rng.Intn(len(live))], Arg: int64(rng.Intn(10)), Aux: int64(rng.Intn(2))})
			}
		case 6:
			if len(live) > 0 {
				evs = append(evs, trace.Event{Time: tm, Kind: trace.KindNotify, Thread: live[rng.Intn(len(live))], Arg: int64(rng.Intn(10)), Aux: int64(rng.Intn(2))})
			}
		case 7:
			if len(live) > 0 {
				evs = append(evs, trace.Event{Time: tm, Kind: trace.KindSetPriority, Thread: live[rng.Intn(len(live))], Arg: 4, Aux: int64(1 + rng.Intn(7))})
			}
		}
	}
	return evs
}

// comparable strips the map/pointer fields that reflect.DeepEqual handles
// fine but documents what we compare.
func summarize(a *Analysis) map[string]any {
	return map[string]any{
		"forks": a.Forks, "exits": a.Exits, "switches": a.Switches,
		"waits": a.Waits, "dones": a.WaitDones, "timeouts": a.WaitTimeouts,
		"ml": a.MLEnters, "contended": a.MLContended,
		"cvs": a.DistinctCVs, "mls": a.DistinctMLs,
		"maxlive": a.MaxLive, "eternal": a.EternalCount,
		"exited": a.ExitedCount, "transient": a.TransientCount,
		"meanlife": a.MeanExitedLifetime, "gens": len(a.ForkGenerations),
		"count": a.Intervals.Count(), "total": a.Intervals.Total(),
		"to": a.To, "from": a.From,
	}
}

// Property: the streaming Collector and batch Analyze agree exactly on
// arbitrary event streams and windows.
func TestCollectorMatchesAnalyze(t *testing.T) {
	f := func(seed int64, nRaw uint8, fromMs, winMs uint16) bool {
		evs := randomEvents(seed, 20+int(nRaw))
		from := vclock.Time(vclock.Duration(fromMs) * vclock.Millisecond / 8)
		to := from.Add(vclock.Duration(winMs) * vclock.Millisecond / 8)
		batch := Analyze(evs, from, to)

		c := NewCollector(from, to)
		for _, ev := range evs {
			c.Record(ev)
		}
		end := from
		if len(evs) > 0 {
			end = evs[len(evs)-1].Time
		}
		stream := c.Finish(end)
		return reflect.DeepEqual(summarize(batch), summarize(stream))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCollectorFinishIdempotent(t *testing.T) {
	c := NewCollector(0, vclock.Never)
	for _, ev := range randomEvents(3, 50) {
		c.Record(ev)
	}
	a1 := c.Finish(vclock.Time(vclock.Second))
	a2 := c.Finish(vclock.Time(2 * vclock.Second))
	if a1 != a2 {
		t.Fatal("Finish should return the same Analysis")
	}
	if a1.To != vclock.Time(vclock.Second) {
		t.Fatalf("To = %v, want 1s (first Finish wins)", a1.To)
	}
	// Records after Finish are ignored.
	before := a1.MLEnters
	c.Record(trace.Event{Time: vclock.Time(500 * vclock.Millisecond), Kind: trace.KindMLEnter, Thread: 1, Arg: 1})
	if a1.MLEnters != before {
		t.Fatal("Record after Finish mutated the analysis")
	}
}

func TestCollectorNeverWindow(t *testing.T) {
	c := NewCollector(0, vclock.Never)
	c.Record(trace.Event{Time: vclock.Time(10 * vclock.Millisecond), Kind: trace.KindMLEnter, Thread: 1, Arg: 1})
	a := c.Finish(vclock.Time(20 * vclock.Millisecond))
	if a.To != vclock.Time(20*vclock.Millisecond) {
		t.Fatalf("To = %v", a.To)
	}
	if a.MLEnters != 1 {
		t.Fatalf("MLEnters = %d", a.MLEnters)
	}
}

// TestIDSet counts distinct IDs against a map: small sequential IDs,
// repeats, the dense limit's edges, and the hostile ones a replayed
// trace can carry (negative, huge), which must spill to the map rather
// than grow the bitset past its cap.
func TestIDSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ids := []int64{0, 1, 1, 63, 64, 65, idSetDenseLimit - 1, idSetDenseLimit, idSetDenseLimit, -1, -1 << 62, 1<<63 - 1, 0}
	for i := 0; i < 2000; i++ {
		switch i % 3 {
		case 0:
			ids = append(ids, rng.Int63n(5000))
		case 1:
			ids = append(ids, rng.Int63())
		default:
			ids = append(ids, ids[rng.Intn(len(ids))])
		}
	}
	var s idSet
	want := map[int64]bool{}
	for _, id := range ids {
		s.add(id)
		want[id] = true
		if s.n != len(want) {
			t.Fatalf("after adding %d: %d distinct, want %d", id, s.n, len(want))
		}
	}
	if len(s.bits) > idSetDenseLimit/64 {
		t.Errorf("bitset grew to %d words, cap %d", len(s.bits), idSetDenseLimit/64)
	}
}

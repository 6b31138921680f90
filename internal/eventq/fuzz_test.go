package eventq

import "testing"

// FuzzWheelDifferential feeds arbitrary operation streams through the
// differential interpreter: the timing wheel + far-future heap hybrid
// must match the naive sorted-reference model op for op — pop order,
// NextTime, Len, and Handle-generation semantics (a stale Cancel is a
// no-op) — on every input. The seed corpus under
// testdata/fuzz/FuzzWheelDifferential covers the wheel's seams: level
// boundaries, same-timestamp batches across cascades, cancel-of-minimum,
// heap spillover and past timestamps. The last four seeds take tickets
// (op 5), schedule a later event at the tickets' instant, then schedule
// under the tickets, newest first (op 7, then op 1), so the bucket holds
// its seqs in reverse: in a level-0 bucket, in a level-1 bucket that
// then cascades, in the far-future heap, and as the cached minimum of a
// level-1 bucket. `make check` runs this target in the fuzz-short pass.
func FuzzWheelDifferential(f *testing.F) {
	sched := func(scale byte, raw int) []byte {
		return []byte{0, scale, byte(raw >> 16), byte(raw >> 8), byte(raw)}
	}
	f.Add(concat(sched(0, 0), sched(0, 0), sched(0, 1), []byte{4}))
	f.Add(concat(sched(1, 63), sched(2, 64), sched(2, 65), []byte{3, 3, 3}))
	f.Add(concat(sched(2, 4095), sched(3, 4096), []byte{3, 3}))
	f.Add(concat(sched(4, (1<<24)-1), sched(5, 0), []byte{3, 3}))
	f.Add(concat(sched(1, 10), sched(6, 5), []byte{3, 3}))
	f.Add(concat(sched(1, 1), sched(1, 2), []byte{2, 0, 3}))
	f.Add(concat(sched(2, 100), sched(2, 100), sched(2, 99), []byte{3, 4}))
	// ticketed schedules under held ticket (op/6) mod held: op 1 takes
	// the oldest, op 7 the second oldest.
	ticketed := func(op, scale byte, raw int) []byte {
		return []byte{op, scale, byte(raw >> 16), byte(raw >> 8), byte(raw)}
	}
	f.Add(concat([]byte{5, 5}, sched(0, 0), ticketed(7, 0, 0), ticketed(1, 0, 0), []byte{3, 3, 3}))
	f.Add(concat([]byte{5, 5}, sched(2, 100), ticketed(7, 2, 100), ticketed(1, 2, 100), []byte{3, 4}))
	f.Add(concat([]byte{5, 5}, sched(5, 7), ticketed(7, 5, 7), ticketed(1, 5, 7), []byte{3, 3, 3}))
	f.Add(concat([]byte{5}, sched(2, 300), []byte{5}, ticketed(1, 2, 300), []byte{3, 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		runDifferential(t, data)
	})
}

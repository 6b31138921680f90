package eventq

import "testing"

// FuzzWheelDifferential feeds arbitrary operation streams through the
// differential interpreter: the heap and its timer slots must match the
// naive sorted-reference model op for op — pop order, NextTime, Len, and
// Handle-generation semantics (a stale Cancel is a no-op) — on every input.
// The target keeps the name it had when the queue was a timing wheel, and
// the seed corpus under testdata/fuzz/FuzzWheelDifferential keeps the
// wheel's old seams as inputs: timestamps either side of its level
// boundaries and its 2^24 µs horizon, same-timestamp batches, cancel-of-
// minimum and past timestamps. The slot seeds (ops 6 and 7) arm a timer
// slot at the instant of scheduled events, near and far, so the (when,
// seq) merge decides every tie. The ticket seeds take tickets (op 5),
// schedule a later event at the tickets' instant, then arm slots under the
// tickets, newest first (ArmSeq), so the slots order ahead of the event and
// of each other against their arming order, near, far and against a slot
// armed with a fresh seq. One more re-arms and disarms the earliest slot.
// `make check` runs this target in the fuzz-short pass.
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
	f.Add(concat(sched(1, 10), arm(0, 1, 10), sched(1, 10), []byte{4}))
	f.Add(concat(sched(2, 100), arm(0, 2, 100), sched(2, 100), arm(1, 2, 99), []byte{3, 4}))
	f.Add(concat(sched(5, 7), arm(0, 5, 7), sched(5, 7), []byte{3, 3, 3}))
	// armTicketed(k, j, ...) arms slot k under held ticket j mod held:
	// j = 1 takes the newer of two, then j = 0 the one left.
	f.Add(concat([]byte{5, 5}, sched(0, 0), armTicketed(0, 1, 0, 0), armTicketed(1, 0, 0, 0), []byte{3, 3, 3}))
	f.Add(concat([]byte{5, 5}, sched(2, 100), armTicketed(0, 1, 2, 100), armTicketed(1, 0, 2, 100), []byte{3, 4}))
	f.Add(concat([]byte{5, 5}, sched(5, 7), armTicketed(0, 1, 5, 7), armTicketed(1, 0, 5, 7), []byte{3, 3, 3}))
	f.Add(concat([]byte{5}, sched(2, 300), []byte{5}, armTicketed(0, 0, 2, 300), []byte{3, 3}))
	f.Add(concat([]byte{5}, arm(0, 1, 10), armTicketed(1, 0, 1, 10), sched(1, 10), []byte{4}))
	f.Add(concat(arm(0, 1, 10), arm(1, 1, 10), arm(2, 1, 12), arm(0, 1, 10), disarm(2), []byte{4, 4}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		runDifferential(t, data)
	})
}

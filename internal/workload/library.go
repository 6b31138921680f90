// Package workload models the two systems the paper measured — Cedar and
// GVX — as populations of the thread paradigms the paper itself says the
// systems are made of: eternal sleepers, pumps, serializers, a
// high-priority Notifier, work-deferring forks, and the benchmark
// activities of Tables 1–3 (keyboard, mouse, scrolling, document
// formatting and previewing, make, compile).
//
// The models are parameterized and tuned to the paper's reported
// operating points. The calibration targets and the knobs are honest
// modeling choices, not measurements: what the reproduction claims is the
// *shape* — idle vs. busy contrasts, Cedar vs. GVX contrasts, the
// timeout-dominated wait mix, the monitor-entry scale — not the authors'
// absolute SPARCstation numbers.
package workload

import (
	"fmt"
	"strconv"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// Library models the monitored modules of a multi-million-line system:
// a pool of monitors that threads enter briefly as they call through
// layers of reusable packages. Table 3's "number of different MLs"
// counts how much of this pool a benchmark visits; §3 notes monitors are
// entered frequently "reflecting their use to protect data structures
// (especially in reusable library packages)" with very low contention.
type Library struct {
	w    *sim.World
	name string
	size int
	// base is the ID before the pool's reserved block: monitor i has ID
	// base+1+i. mons stays nil until the first entry, and monitor i is
	// built on its own first entry (monitorAt): a run visits only part
	// of its library (Table 3), so most of the pool never exists.
	base int64
	mons []*monitor.Monitor
	// HoldCost is CPU charged inside each touched monitor.
	HoldCost vclock.Duration
}

// libraryOptions are every library monitor's options: PCR shipped the
// §6.1 fix.
var libraryOptions = monitor.Options{DeferNotifyReschedule: true}

// NewLibrary creates a pool of n monitors named name-0 .. name-<n-1>. It
// reserves their IDs now, so monitors created after it get the same IDs
// whether or not the pool's monitors have been built yet.
func NewLibrary(w *sim.World, name string, n int) *Library {
	return &Library{w: w, name: name, size: n, base: w.ReserveMonitorIDs(n), HoldCost: 2 * vclock.Microsecond}
}

// Size returns the number of monitors in the pool.
func (l *Library) Size() int { return l.size }

// monitorAt returns the pool's monitor idx, building it on first use
// under its reserved ID. It panics, naming the index, when idx is
// outside the pool.
func (l *Library) monitorAt(idx int) *monitor.Monitor {
	if idx < 0 || idx >= l.size {
		panic(fmt.Sprintf("workload: library index %d outside [0,%d)", idx, l.size))
	}
	if l.mons == nil {
		l.mons = make([]*monitor.Monitor, l.size)
	}
	m := l.mons[idx]
	if m == nil {
		// name-idx built in a stack buffer: one allocation, the string.
		b := append(append(make([]byte, 0, 32), l.name...), '-')
		name := string(strconv.AppendInt(b, int64(idx), 10))
		m = monitor.NewWithID(l.w, l.base+1+int64(idx), name, libraryOptions)
		l.mons[idx] = m
	}
	return m
}

// Region identifies a half-open slice [Lo, Hi) of the library: the
// modules a particular activity calls through.
type Region struct{ Lo, Hi int }

// Span returns the number of monitors in the region.
func (r Region) Span() int { return r.Hi - r.Lo }

// Touch enters and exits k monitors drawn uniformly from the region,
// charging the per-hold cost inside each — one layered call chain.
func (l *Library) Touch(t *sim.Thread, r Region, k int) {
	if r.Lo < 0 || r.Hi > l.size || r.Lo >= r.Hi {
		panic(fmt.Sprintf("workload: bad region [%d,%d) of %d", r.Lo, r.Hi, l.size))
	}
	rng := l.w.Rand()
	for i := 0; i < k; i++ {
		m := l.monitorAt(r.Lo + rng.Intn(r.Span()))
		m.Enter(t)
		t.Compute(l.HoldCost)
		m.Exit(t)
	}
}

// TouchOne enters a specific monitor (by pool index), computes hold, and
// exits — used to create deliberate contention points (GVX's window
// monitor under scrolling, §3's 0.4 % contention).
func (l *Library) TouchOne(t *sim.Thread, idx int, hold vclock.Duration) {
	m := l.monitorAt(idx)
	m.Enter(t)
	t.Compute(hold)
	m.Exit(t)
}

// TouchOneIO enters a specific monitor, computes hold, performs io of
// synchronous device I/O while still holding the monitor, and exits.
// Lower-priority threads run during the I/O and contend on the monitor —
// how GVX's shared window monitor shows measurable contention under
// scrolling.
func (l *Library) TouchOneIO(t *sim.Thread, idx int, hold, io vclock.Duration) {
	m := l.monitorAt(idx)
	m.Enter(t)
	t.Compute(hold)
	t.BlockIO(io)
	m.Exit(t)
}

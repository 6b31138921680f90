package fault

import (
	"io"

	"repro/internal/paradigm"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// Watchdog is a liveness sleeper (§4.3 paradigm, aimed at §6.2
// pathologies): every period it samples a progress counter, and when the
// counter has not advanced for quanta consecutive periods it declares
// starvation, records the detection, and hands the onStarve callback a
// state dump — the "tool to reach for" output of World.DumpState. When
// progress resumes after a detection the episode is recorded as cleared.
type Watchdog struct {
	w        *sim.World
	period   vclock.Duration
	quanta   int
	progress func() int64
	onStarve func(dump func(io.Writer))

	last     int64
	stale    int
	starving bool
	stopped  bool

	detectTimes []vclock.Time
	clearTimes  []vclock.Time
	thread      *sim.Thread
}

// StartWatchdog spawns the watchdog thread at interrupt priority — it
// must keep running through the very starvation it exists to detect.
// period defaults to 100 ms, quanta to 3. reg (optional) records the
// sleeper paradigm. The watchdog sleeps on exact deadlines (BlockIO),
// not the 50 ms CV granularity, so detection latency is period*quanta.
func StartWatchdog(w *sim.World, reg *paradigm.Registry, name string, period vclock.Duration, quanta int, progress func() int64, onStarve func(dump func(io.Writer))) *Watchdog {
	if period <= 0 {
		period = 100 * vclock.Millisecond
	}
	if quanta < 1 {
		quanta = 3
	}
	if reg != nil {
		reg.Register(paradigm.KindSleeper)
	}
	wd := &Watchdog{w: w, period: period, quanta: quanta, progress: progress, onStarve: onStarve}
	wd.last = progress()
	wd.thread = w.Spawn(name, sim.PriorityInterrupt, func(t *sim.Thread) any {
		for !wd.stopped {
			t.BlockIO(wd.period)
			if wd.stopped {
				break
			}
			cur := wd.progress()
			if cur != wd.last {
				wd.last = cur
				wd.stale = 0
				if wd.starving {
					wd.starving = false
					wd.clearTimes = append(wd.clearTimes, t.Now())
				}
				continue
			}
			wd.stale++
			if wd.stale >= wd.quanta && !wd.starving {
				wd.starving = true
				wd.detectTimes = append(wd.detectTimes, t.Now())
				if wd.onStarve != nil {
					wd.onStarve(func(out io.Writer) { wd.w.DumpState(out) })
				}
			}
		}
		return nil
	})
	wd.thread.Detach()
	return wd
}

// Stop makes the watchdog exit at its next tick.
func (wd *Watchdog) Stop() { wd.stopped = true }

// Detections returns how many starvation episodes have been declared.
func (wd *Watchdog) Detections() int { return len(wd.detectTimes) }

// DetectTimes returns when each starvation episode was declared.
func (wd *Watchdog) DetectTimes() []vclock.Time { return wd.detectTimes }

// ClearTimes returns when progress resumed after each detection; an
// episode with no paired clear time was still starving at the end of
// the run.
func (wd *Watchdog) ClearTimes() []vclock.Time { return wd.clearTimes }

// Starving reports whether the watchdog currently believes the counter
// is starved.
func (wd *Watchdog) Starving() bool { return wd.starving }

// RetryPolicy is FORK retry with capped exponential backoff over
// TryFork — a concrete answer to §5.4's "the standard programming
// practice was to catch the error and to try to recover, but good
// recovery schemes seem never to have been worked out."
type RetryPolicy struct {
	// Tries is the total number of TryFork attempts; <= 0 selects 8.
	Tries int
	// Backoff is the delay before the second attempt; <= 0 selects 1 ms.
	// It doubles per failure up to Ceiling (default 100 ms).
	Backoff vclock.Duration
	Ceiling vclock.Duration
}

// Fork attempts t.TryFork under the policy, sleeping on exact deadlines
// between failures. It returns the child, the number of retries that
// were needed (0 on first-try success), and sim.ErrNoThreads if the
// thread limit outlasted every attempt.
func (p RetryPolicy) Fork(t *sim.Thread, name string, body sim.Proc) (*sim.Thread, int, error) {
	tries := p.Tries
	if tries <= 0 {
		tries = 8
	}
	d := p.Backoff
	if d <= 0 {
		d = vclock.Millisecond
	}
	ceiling := p.Ceiling
	if ceiling <= 0 {
		ceiling = 100 * vclock.Millisecond
	}
	if ceiling < d {
		ceiling = d
	}
	retries := 0
	for {
		child, err := t.TryFork(name, body)
		if err == nil {
			return child, retries, nil
		}
		if retries >= tries-1 {
			return nil, retries, err
		}
		retries++
		t.BlockIO(d)
		d *= 2
		if d > ceiling {
			d = ceiling
		}
	}
}

package profile

import (
	"sync"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Set profiles every world a run creates. Install Attach as
// sim.Hooks.OnWorld and each new world gets its own Profiler teed into
// the world's trace stream; Finish then closes every profiler at its
// world's final virtual clock.
//
// Attach/Finish are mutex-guarded so a Set survives callers that build
// worlds from more than one goroutine, but each returned sink is still
// single-world (worlds record events from one goroutine at a time).
type Set struct {
	mu     sync.Mutex
	worlds []*sim.World
	profs  []*Profiler
	done   []*Profile
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{} }

// Attach creates a profiler for w and returns it as the extra trace
// sink for the world; it has the sim.Hooks.OnWorld signature.
func (s *Set) Attach(w *sim.World) trace.Sink {
	p := New(w.Config().CPUs)
	s.mu.Lock()
	s.worlds = append(s.worlds, w)
	s.profs = append(s.profs, p)
	s.mu.Unlock()
	return p
}

// Finish closes every attached profiler at its world's current virtual
// clock and returns the profiles in world-creation order. Worlds
// attached after a Finish are picked up by the next Finish call;
// already-finished profilers return their existing profile.
func (s *Set) Finish() []*Profile {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.done); i < len(s.profs); i++ {
		w, p := s.worlds[i], s.profs[i]
		prof := p.Finish(w.Now())
		names := make(map[int32]string)
		for _, t := range w.Threads() {
			if t.Name() != "" {
				names[t.ID()] = t.Name()
			}
		}
		prof.ApplyNames(names)
		s.done = append(s.done, prof)
	}
	return s.done
}

// Summary finishes the set and aggregates every profile into one
// machine-readable record.
func (s *Set) Summary() Summary { return Summarize(s.Finish()...) }

// Summary is the machine-readable aggregate of one or more profiles;
// cmd/traceview -profilejson emits it as JSON. Every duration field is in
// virtual microseconds.
type Summary struct {
	Worlds  int `json:"worlds"`
	Threads int `json:"threads"`

	// VirtualTime sums each world's profiled window; CPUTime sums
	// CPUs × window — the denominator of the accounting identity.
	VirtualTime vclock.Duration `json:"virtual_us"`
	CPUTime     vclock.Duration `json:"cpu_time_us"`

	Running   vclock.Duration `json:"running_us"`
	Ready     vclock.Duration `json:"ready_us"`
	MutexWait vclock.Duration `json:"mutex_wait_us"`
	CVWait    vclock.Duration `json:"cv_wait_us"`
	Sleep     vclock.Duration `json:"sleep_us"`
	// OtherBlocked covers JOIN and FORK-exhaustion waits.
	OtherBlocked vclock.Duration `json:"other_blocked_us"`
	Idle         vclock.Duration `json:"idle_us"`

	// Residue is the accounting error summed over worlds; it is zero
	// for complete traces and the bench harness treats nonzero as a bug.
	Residue vclock.Duration `json:"residue_us"`

	Switches    int64 `json:"switches"`
	Preemptions int64 `json:"preemptions"`
	Yields      int64 `json:"yields"`

	Monitors        int   `json:"monitors"`
	MonitorEnters   int64 `json:"monitor_enters"`
	ContendedEnters int64 `json:"contended_enters"`
	CVs             int   `json:"cvs"`
	CVWaits         int64 `json:"cv_waits"`
	CVTimeouts      int64 `json:"cv_timeouts"`

	InversionEpisodes int64           `json:"inversion_episodes"`
	InversionTime     vclock.Duration `json:"inversion_us"`
	LongestInversion  vclock.Duration `json:"longest_inversion_us"`
}

// add folds one profile into the aggregate.
func (s *Summary) add(p *Profile) {
	s.Worlds++
	s.Threads += len(p.Threads)
	s.VirtualTime += p.Window()
	s.CPUTime += vclock.Duration(int64(p.CPUs)) * p.Window()
	for _, t := range p.Threads {
		s.Running += t.Durations[StateRunning]
		s.Ready += t.Durations[StateReady]
		s.MutexWait += t.Durations[StateMutex]
		s.CVWait += t.Durations[StateCV]
		s.Sleep += t.Durations[StateSleep]
		s.OtherBlocked += t.Durations[StateJoin] + t.Durations[StateForkWait]
		s.Switches += t.Switches
		s.Preemptions += t.Preemptions
		s.Yields += t.Yields
	}
	s.Idle += p.TotalIdle()
	s.Residue += p.Residue()
	s.Monitors += len(p.Monitors)
	for _, m := range p.Monitors {
		s.MonitorEnters += m.Enters
		s.ContendedEnters += m.Contended
	}
	s.CVs += len(p.CVs)
	for _, c := range p.CVs {
		s.CVWaits += c.Waits
		s.CVTimeouts += c.Timeouts
	}
	s.InversionEpisodes += p.Inversion.Episodes
	s.InversionTime += p.Inversion.Total
	if p.Inversion.Longest > s.LongestInversion {
		s.LongestInversion = p.Inversion.Longest
	}
}

// Summarize aggregates profiles without a Set (e.g. a single replayed
// trace).
func Summarize(profs ...*Profile) Summary {
	var sum Summary
	for _, p := range profs {
		sum.add(p)
	}
	return sum
}

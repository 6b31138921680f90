package sched

import (
	"repro/internal/sim"
	"repro/internal/vclock"
)

func init() {
	register(&descriptor{
		name: "pcr-rr",
		doc:  "the paper's PCR discipline: 7 strict priorities, round-robin within one (default)",
		build: func(kv map[string]string) (Policy, error) {
			// The singleton, not a copy: the dispatcher skips the
			// Pick/Rotate consultation, whose answer is always the FIFO
			// head, only for this value.
			return sim.PCRPolicy, nil
		},
	})
	register(&descriptor{
		name:   "rr",
		doc:    "single-level round-robin: every thread on one ready level, FIFO rotation",
		params: []string{"level", "quantum"},
		build: func(kv map[string]string) (Policy, error) {
			level, err := levelParam(kv, "rr", "level", sim.PriorityNormal)
			if err != nil {
				return nil, err
			}
			quantum, err := durParam(kv, "rr", "quantum", 0)
			if err != nil {
				return nil, err
			}
			return &rrPolicy{level: level, quantum: quantum}, nil
		},
	})
	register(&descriptor{
		name:   "edf",
		doc:    "earliest-deadline-first over Thread.Deadline; no deadline sorts last",
		params: []string{"level"},
		build: func(kv map[string]string) (Policy, error) {
			level, err := levelParam(kv, "edf", "level", sim.PriorityNormal)
			if err != nil {
				return nil, err
			}
			return &edfPolicy{level: level}, nil
		},
	})
	register(&descriptor{
		name:   "sjf",
		doc:    "shortest-job-first over Thread.ServiceEstimate; no estimate sorts last",
		params: []string{"level"},
		build: func(kv map[string]string) (Policy, error) {
			level, err := levelParam(kv, "sjf", "level", sim.PriorityNormal)
			if err != nil {
				return nil, err
			}
			return &sjfPolicy{level: level}, nil
		},
	})
}

// rrPolicy flattens every thread onto one ready level, so the dispatcher's
// FIFO + quantum rotation becomes classic single-queue round-robin — the
// maximal-fairness / minimal-promptness endpoint of the policy space.
type rrPolicy struct {
	level   sim.Priority
	quantum vclock.Duration // 0 = the world's Config.Quantum
}

func (p *rrPolicy) Name() string                                                 { return "rr" }
func (p *rrPolicy) Level(t *sim.Thread, wake bool, now vclock.Time) sim.Priority { return p.level }
func (p *rrPolicy) Pick(d sim.Decision) int                                      { return 0 }
func (p *rrPolicy) Rotate(d sim.Decision) int                                    { return 0 }
func (p *rrPolicy) Expired(t *sim.Thread, now vclock.Time)                       {}
func (p *rrPolicy) Age(t *sim.Thread, now vclock.Time) (sim.Priority, bool)      { return 0, false }
func (p *rrPolicy) Tick() vclock.Duration                                        { return 0 }

func (p *rrPolicy) Quantum(t *sim.Thread, def vclock.Duration) vclock.Duration {
	if p.quantum > 0 {
		return p.quantum
	}
	return def
}

// edfPolicy runs everything on one level and orders the candidate set by
// absolute deadline (Thread.SetDeadline); threads without a deadline sort
// after every deadline-bearing thread, FIFO among themselves. Within a
// quantum the running thread is not preempted by an equal-level arrival,
// so this is non-preemptive EDF at quantum granularity.
type edfPolicy struct {
	level sim.Priority
}

func (p *edfPolicy) Name() string                                                 { return "edf" }
func (p *edfPolicy) Level(t *sim.Thread, wake bool, now vclock.Time) sim.Priority { return p.level }
func (p *edfPolicy) Pick(d sim.Decision) int                                      { return pickEDF(d.Candidates) }
func (p *edfPolicy) Rotate(d sim.Decision) int                                    { return pickEDF(d.Candidates) }
func (p *edfPolicy) Quantum(t *sim.Thread, def vclock.Duration) vclock.Duration   { return def }
func (p *edfPolicy) Expired(t *sim.Thread, now vclock.Time)                       {}
func (p *edfPolicy) Age(t *sim.Thread, now vclock.Time) (sim.Priority, bool)      { return 0, false }
func (p *edfPolicy) Tick() vclock.Duration                                        { return 0 }

// pickEDF returns the index of the earliest-deadline candidate; ties and
// deadline-free threads keep FIFO order (lowest index wins).
func pickEDF(cands []*sim.Thread) int {
	best, bestDL := 0, deadlineOf(cands[0])
	for i := 1; i < len(cands); i++ {
		if dl := deadlineOf(cands[i]); dl < bestDL {
			best, bestDL = i, dl
		}
	}
	return best
}

func deadlineOf(t *sim.Thread) vclock.Time {
	if dl := t.Deadline(); dl != 0 {
		return dl
	}
	return vclock.Never
}

// sjfPolicy runs everything on one level and orders the candidate set by
// declared remaining service (Thread.SetServiceEstimate); threads without
// an estimate sort last, FIFO among themselves. Like edf it is
// non-preemptive within a quantum.
type sjfPolicy struct {
	level sim.Priority
}

func (p *sjfPolicy) Name() string                                                 { return "sjf" }
func (p *sjfPolicy) Level(t *sim.Thread, wake bool, now vclock.Time) sim.Priority { return p.level }
func (p *sjfPolicy) Pick(d sim.Decision) int                                      { return pickSJF(d.Candidates) }
func (p *sjfPolicy) Rotate(d sim.Decision) int                                    { return pickSJF(d.Candidates) }
func (p *sjfPolicy) Quantum(t *sim.Thread, def vclock.Duration) vclock.Duration   { return def }
func (p *sjfPolicy) Expired(t *sim.Thread, now vclock.Time)                       {}
func (p *sjfPolicy) Age(t *sim.Thread, now vclock.Time) (sim.Priority, bool)      { return 0, false }
func (p *sjfPolicy) Tick() vclock.Duration                                        { return 0 }

// pickSJF returns the index of the shortest-estimate candidate; ties and
// estimate-free threads keep FIFO order.
func pickSJF(cands []*sim.Thread) int {
	best, bestEst := 0, estimateOf(cands[0])
	for i := 1; i < len(cands); i++ {
		if est := estimateOf(cands[i]); est < bestEst {
			best, bestEst = i, est
		}
	}
	return best
}

func estimateOf(t *sim.Thread) vclock.Duration {
	if est := t.ServiceEstimate(); est > 0 {
		return est
	}
	return vclock.Duration(1<<63 - 1)
}

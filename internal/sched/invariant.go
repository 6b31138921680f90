package sched

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// CheckFunc is a trace-level scheduling invariant: it replays a run's
// events and reports the first violation. quantum is the world's
// configured timeslice, used to derive waiting-time tolerances.
type CheckFunc func(events []trace.Event, quantum vclock.Duration) error

// Invariant pairs a policy with its schedule invariant and the oracle
// name package explore registers it under. Every policy has one: the
// property that any legal schedule under that policy must satisfy, which
// is what de-hardwires explore's strict-priority oracle — pcr-rr's
// invariant IS that oracle, verbatim, and each alternative policy brings
// its own checkable discipline.
type Invariant struct {
	Policy string // policy name (see Names)
	Oracle string // oracle name for explore's table / schedcheck -list
	Check  CheckFunc
}

// Invariants returns every policy's invariant, in policy-name order.
func Invariants() []Invariant {
	invs := []Invariant{
		{Policy: "pcr-rr", Oracle: "strict-priority", Check: CheckStrictPriority},
		// One shared ready level: every thread's wait is bounded by the
		// queue draining ahead of it.
		{Policy: "rr", Oracle: "bounded-wait:rr", Check: checkBoundedWait(250 * vclock.Millisecond)},
		// EDF and SJF reorder within the level but still rotate every
		// quantum, so the same bound holds; SJF gets extra slack because
		// estimate-bearing short jobs may legally jump long ones for a
		// while under open arrivals.
		{Policy: "edf", Oracle: "bounded-wait:edf", Check: checkBoundedWait(250 * vclock.Millisecond)},
		{Policy: "sjf", Oracle: "bounded-wait:sjf", Check: checkBoundedWait(vclock.Second)},
		// Feedback and hybrid trade short-term ordering freedom for an
		// aging/boost guarantee: nothing waits unboundedly. The slack
		// covers the default aging horizon (mlfq) and boost cadence
		// (hybrid) with margin for parameter variation.
		{Policy: "mlfq", Oracle: "no-starvation:mlfq", Check: checkBoundedWait(vclock.Second)},
		{Policy: "hybrid", Oracle: "no-starvation:hybrid", Check: checkBoundedWait(vclock.Second)},
	}
	sort.Slice(invs, func(i, j int) bool { return invs[i].Policy < invs[j].Policy })
	return invs
}

// OracleFor returns the oracle name of a policy's invariant —
// "strict-priority" for pcr-rr — or "" for unknown policies. Explore uses
// it to substitute the policy-matched oracle when a scenario that opted
// into strict-priority runs under a different policy.
func OracleFor(policy string) string {
	for _, inv := range Invariants() {
		if inv.Policy == policy {
			return inv.Oracle
		}
	}
	return ""
}

// CheckStrictPriority is the pcr-rr invariant — and the explore oracle of
// the same name, moved here verbatim so the oracle table is built from
// the policy registry instead of hardwiring the PCR discipline: no
// runnable thread waits longer than a quantum (plus dispatch tolerance)
// while a strictly lower-priority thread runs. Opt-in at the scenario
// level — boosts and the SystemDaemon donate time to low-priority
// threads on purpose, and the check assumes one CPU.
func CheckStrictPriority(events []trace.Event, quantum vclock.Duration) error {
	tol := quantum + vclock.Millisecond
	return replayRunQueue(events, func(q *runQueue, id int32, now vclock.Time) error {
		if wait := now.Sub(q.readySince[id]); q.pri[id] > q.pri[q.running] && wait > tol {
			return fmt.Errorf("t%d (pri %d) runnable since %v while t%d (pri %d) ran — starved %v at %v",
				id, q.pri[id], q.readySince[id], q.running, q.pri[q.running], wait, now)
		}
		return nil
	})
}

// checkBoundedWait builds the priority-blind waiting-time invariant: at
// every trace position, no ready thread has been waiting longer than one
// quantum per queued-ready thread, plus `extra` policy slack and the
// dispatch tolerance, while some thread runs. It is the common shape of
// every non-strict policy's guarantee — round-robin rotation (rr, edf,
// sjf) and aging/boost anti-starvation (mlfq, hybrid) differ only in how
// much slack they need. Like the strict-priority check it assumes one
// CPU and is opt-in: boosts legitimately reorder short windows.
func checkBoundedWait(extra vclock.Duration) CheckFunc {
	return func(events []trace.Event, quantum vclock.Duration) error {
		tol := quantum + extra + vclock.Millisecond
		return replayRunQueue(events, func(q *runQueue, id int32, now vclock.Time) error {
			bound := vclock.Duration(int64(quantum)*int64(len(q.readySince))) + tol
			if wait := now.Sub(q.readySince[id]); wait > bound {
				return fmt.Errorf("t%d runnable since %v while t%d ran — waited %v (> bound %v) at %v",
					id, q.readySince[id], q.running, wait, bound, now)
			}
			return nil
		})
	}
}

// runQueue is the one-CPU scheduling state the invariants replay: the
// running thread, when each ready thread became ready, and every
// thread's priority.
type runQueue struct {
	running    int32
	readySince map[int32]vclock.Time
	pri        map[int32]int64
}

// replayRunQueue replays a one-CPU run's fork, priority, ready, block,
// exit and switch records. Before applying each record, while a thread
// runs, it calls check for every ready thread in ascending ID order at
// the record's instant, and it returns the first error check reports.
func replayRunQueue(events []trace.Event, check func(q *runQueue, id int32, now vclock.Time) error) error {
	q := runQueue{running: trace.NoThread, readySince: map[int32]vclock.Time{}, pri: map[int32]int64{}}
	blocked := map[int32]bool{}
	dead := map[int32]bool{}
	var ids []int32
	for _, ev := range events {
		if q.running != trace.NoThread {
			ids = ids[:0]
			for id := range q.readySince {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			for _, id := range ids {
				if err := check(&q, id, ev.Time); err != nil {
					return err
				}
			}
		}
		switch ev.Kind {
		case trace.KindFork:
			q.pri[int32(ev.Arg)] = ev.Aux
		case trace.KindSetPriority:
			q.pri[ev.Thread] = ev.Aux
		case trace.KindReady:
			delete(blocked, ev.Thread)
			q.readySince[ev.Thread] = ev.Time
		case trace.KindBlock:
			blocked[ev.Thread] = true
			delete(q.readySince, ev.Thread)
		case trace.KindExit:
			dead[ev.Thread] = true
			delete(q.readySince, ev.Thread)
			if q.running == ev.Thread {
				q.running = trace.NoThread
			}
		case trace.KindSwitch:
			from := int32(ev.Arg)
			q.running = ev.Thread
			if ev.Thread != trace.NoThread {
				delete(q.readySince, ev.Thread)
			}
			// The switch-out target went back on the run queue unless its
			// Block/Exit event (recorded before the switch) says otherwise.
			if from != trace.NoThread && from != ev.Thread && !blocked[from] && !dead[from] {
				q.readySince[from] = ev.Time
			}
		}
	}
	return nil
}

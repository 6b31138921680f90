package workload

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vclock"
	"repro/internal/workload/spec"
)

// This file holds the S-series SLO view and the always-ready batch
// pool. The slo kind runs one Server per cohort (cohort name as SLO
// class, latency target as deadline offset, constant demand as the unit
// of the service estimate) over an optional batch pool whose chunk
// latencies count under the "batch" class, so one run yields per-class
// percentiles and SLO attainment for every policy under test. The mixed
// kind runs the same batch pool without the per-class books.

// SLOStats summarizes one SLO-workload run, keyed by class name.
type SLOStats struct {
	// Threads is the total worker population (sessions plus batch).
	Threads int
	// Offered, Completed, and OnTime count requests (or batch chunks)
	// injected, served, and served within the class SLO.
	Offered   map[string]int64
	Completed map[string]int64
	OnTime    map[string]int64
	// Latency holds per-class end-to-end latency (arrival to completion,
	// queueing and preemption included).
	Latency stats.ClassLatency
}

// Classes lists every class that offered work, sorted — the union of the
// cohort names and "batch", including classes that completed nothing.
func (s *SLOStats) Classes() []string {
	names := make([]string, 0, len(s.Offered))
	for name := range s.Offered {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Attainment returns the fraction of a class's offered work that
// completed within its SLO. Work offered but never completed counts
// against the class; a class that offered nothing is trivially attained.
func (s *SLOStats) Attainment(class string) float64 {
	off := s.Offered[class]
	if off == 0 {
		return 1
	}
	return float64(s.OnTime[class]) / float64(off)
}

// SLOLoad is the slo kind's instance: its per-cohort pools and its
// batch pool, summarized per class by Finish.
type SLOLoad struct {
	classes []string
	pools   []*Server
	batch   *BatchPool
}

// Finish returns the per-class stats after the driving Run returns.
// Each class's latency recorder is its pool's own, not a copy.
func (l *SLOLoad) Finish() *SLOStats {
	st := &SLOStats{Offered: map[string]int64{}, Completed: map[string]int64{}, OnTime: map[string]int64{}}
	add := func(class string, offered, completed, onTime int64, lat *stats.LatencyRecorder) {
		if offered == 0 {
			return // a class that offered nothing is not a class of this run
		}
		st.Offered[class], st.Completed[class], st.OnTime[class] = offered, completed, onTime
		st.Latency.Set(class, lat)
	}
	for i, p := range l.pools {
		st.Threads += p.Sessions()
		add(l.classes[i], p.Stats.Offered, p.Stats.Completed, p.OnTime(), &p.Stats.Latency)
	}
	b := l.batch
	st.Threads += b.workers
	add("batch", b.offered, b.Chunks, b.onTime, &b.latency)
	return st
}

// BatchPool is the always-ready background compute pool under the mixed
// and slo kinds. A chunk's latency spans its start to its finish, so
// preemption mid-grain — exactly what a promptness-oriented policy
// inflicts on the pool — shows up in the percentiles rather than
// vanishing into lost throughput.
type BatchPool struct {
	// Chunks counts completed grains; divide by the horizon for batch
	// throughput.
	Chunks  int64
	workers int
	chunk   vclock.Duration
	// record keeps the per-chunk books (the slo kind's "batch" class).
	record          bool
	slo             vclock.Duration
	offered, onTime int64
	latency         stats.LatencyRecorder
	stopped         bool
}

func (b *BatchPool) body(t *sim.Thread) any {
	for !b.stopped {
		start := t.Now()
		b.offered++
		t.Compute(b.chunk)
		b.Chunks++
		if b.record {
			lat := t.Now().Sub(start)
			b.latency.Add(lat)
			if lat <= b.slo {
				b.onTime++
			}
		}
	}
	return nil
}

// startBatch spawns the workers b declares (none when b is nil) at the
// declared priority, background by default. Under a stamping kind each
// worker is "slo-batch-i" in SLO class "batch" and declares one grain
// as its service estimate — its perpetual remaining demand — so SJF can
// rank the pool against finite sessions; otherwise it is "batch-i".
func startBatch(w *sim.World, b *spec.Batch, k kindConsts) *BatchPool {
	p := &BatchPool{chunk: k.chunk, record: k.stamp}
	if b == nil {
		return p
	}
	p.workers = b.Workers
	if b.ChunkUS > 0 {
		p.chunk = vclock.Duration(b.ChunkUS)
	}
	p.slo = vclock.Duration(b.SLOUS)
	prio, _ := spec.ParsePriority(b.Priority) // Check accepted the name
	if !prio.Valid() {
		prio = sim.PriorityBackground
	}
	name := "batch-%d"
	if k.stamp {
		name = "slo-batch-%d"
	}
	for i := 0; i < p.workers; i++ {
		th := w.Spawn(fmt.Sprintf(name, i), prio, p.body)
		if k.stamp {
			th.SetSLOClass("batch")
			th.SetServiceEstimate(p.chunk)
		}
	}
	return p
}

// Package core is the facade the runnable examples build on: one import
// that exposes the PCR-like thread kernel (package sim), Mesa monitors
// and condition variables (package monitor) and the thread-usage
// paradigm census behind Table 4 (package paradigm).
//
// A minimal program:
//
//	w := core.NewWorld(core.WorldConfig{})
//	defer w.Shutdown()
//	w.Spawn("hello", core.PriorityNormal, func(t *core.Thread) any {
//		t.Compute(10 * core.Millisecond)
//		return nil
//	})
//	w.Run(core.At(1 * core.Second))
package core

import (
	"repro/internal/monitor"
	"repro/internal/paradigm"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// Re-exported kernel types.
type (
	// World is a simulated PCR instance (see sim.World).
	World = sim.World
	// Thread is a simulated PCR thread (see sim.Thread).
	Thread = sim.Thread
	// WorldConfig parameterizes a World (see sim.Config).
	WorldConfig = sim.Config
	// Priority is a PCR thread priority, 1..7.
	Priority = sim.Priority
	// Proc is a thread body.
	Proc = sim.Proc

	// Monitor is a Mesa monitor lock.
	Monitor = monitor.Monitor
	// Cond is a Mesa condition variable.
	Cond = monitor.Cond
	// MonitorOptions tunes monitor costs and the §6.1/§6.2 options.
	MonitorOptions = monitor.Options

	// Registry is the paradigm census behind Table 4.
	Registry = paradigm.Registry

	// Time is a virtual instant; Duration a virtual span.
	Time = vclock.Time
	// Duration is a span of virtual time.
	Duration = vclock.Duration
)

// Re-exported priority levels and time units.
const (
	PriorityMin        = sim.PriorityMin
	PriorityBackground = sim.PriorityBackground
	PriorityLow        = sim.PriorityLow
	PriorityNormal     = sim.PriorityNormal
	PriorityHigh       = sim.PriorityHigh
	PriorityDaemon     = sim.PriorityDaemon
	PriorityInterrupt  = sim.PriorityInterrupt

	Microsecond = vclock.Microsecond
	Millisecond = vclock.Millisecond
	Second      = vclock.Second
	Minute      = vclock.Minute
)

// NewWorld creates a simulated PCR world.
func NewWorld(cfg WorldConfig) *World { return sim.NewWorld(cfg) }

// NewMonitor creates a Mesa monitor with default options.
func NewMonitor(w *World, name string) *Monitor { return monitor.New(w, name) }

// NewRegistry creates an empty paradigm census.
func NewRegistry() *Registry { return paradigm.NewRegistry() }

// At converts a duration-from-epoch into an absolute virtual time, for
// World.Run horizons: w.Run(core.At(30 * core.Second)).
func At(d Duration) Time { return Time(0).Add(d) }

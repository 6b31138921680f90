// Package sched is the scheduling-policy registry: the pluggable
// disciplines the simulator's dispatcher can run instead of the paper's
// hardwired strict-priority + round-robin, the "name:param=val,..." spec
// syntax the CLIs accept, and the per-policy trace invariants the explore
// oracles check.
//
// The Policy interface itself lives in package sim (its methods take
// *sim.Thread); this package re-exports it, hosts the named
// implementations, and owns their parameter validation:
//
//	pcr-rr                    the paper's discipline (the default; the
//	                          same value a world with no policy runs)
//	rr[:level=,quantum=]      single-level round-robin: every thread on one
//	                          ready level, FIFO rotation
//	edf[:level=]              earliest-deadline-first among the declared
//	                          Thread deadlines (no deadline sorts last)
//	sjf[:level=]              shortest-job-first by declared service
//	                          estimate (no estimate sorts last)
//	mlfq[:levels=,quantum=,age=]
//	                          multi-level feedback: demote on quantum
//	                          expiry, reset to top on wakeup, age back up
//	hybrid[:slice=,share=]    promptness-vs-throughput split: interactive/
//	                          deadline work EDF-ordered up top, batch below
//	                          with a guaranteed CPU share via timed boosts
//
// Parse returns a fresh instance per call: stateful policies (mlfq,
// hybrid) key internal state by *sim.Thread and must not be shared
// between worlds.
package sched

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/vclock"
)

// Policy is the scheduling-discipline interface consulted by the
// dispatcher; see sim.Policy for the full seam contract.
type Policy = sim.Policy

// Default is the built-in pcr-rr policy, the one a world with no policy
// runs.
var Default = sim.PCRPolicy

// descriptor is one registry entry.
type descriptor struct {
	name   string
	doc    string   // one-line summary for CLI listings
	params []string // sorted legal param names
	build  func(kv map[string]string) (Policy, error)
}

// table is the policy registry, keyed by name.
var table = map[string]*descriptor{}

func register(d *descriptor) {
	sort.Strings(d.params)
	table[d.name] = d
}

// Names lists every registered policy, sorted.
func Names() []string {
	names := make([]string, 0, len(table))
	for n := range table {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Doc returns the one-line description of a registered policy ("" for
// unknown names). CLI listings use it.
func Doc(name string) string {
	if d, ok := table[name]; ok {
		return d.doc
	}
	return ""
}

// Parse builds a policy from a "name" or "name:param=val,param=val" spec.
// Unknown names, unknown params, malformed pairs and out-of-range values
// are all errors with the full legal set in the message, so CLIs can pass
// the text straight through as their exit-2 diagnostic. Each call returns
// a fresh instance, safe to hand to exactly one world.
func Parse(spec string) (Policy, error) {
	name, rest, hasParams := strings.Cut(spec, ":")
	name = strings.TrimSpace(name)
	d, ok := table[name]
	if !ok {
		return nil, fmt.Errorf("unknown policy %q (have %s)", name, strings.Join(Names(), ", "))
	}
	kv := map[string]string{}
	if hasParams {
		for _, item := range strings.Split(rest, ",") {
			item = strings.TrimSpace(item)
			if item == "" {
				continue
			}
			k, v, ok := strings.Cut(item, "=")
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			if !ok || k == "" || v == "" {
				return nil, fmt.Errorf("policy %s: malformed param %q (want key=val)", name, item)
			}
			if _, dup := kv[k]; dup {
				return nil, fmt.Errorf("policy %s: duplicate param %q", name, k)
			}
			kv[k] = v
		}
	}
	for k := range kv {
		if !paramKnown(d.params, k) {
			have := "none"
			if len(d.params) > 0 {
				have = strings.Join(d.params, ", ")
			}
			return nil, fmt.Errorf("policy %s: unknown param %q (have %s)", name, k, have)
		}
	}
	return d.build(kv)
}

// MustParse is Parse for specs validated upstream; it panics on error.
// The experiment harness uses it on specs the CLIs already checked.
func MustParse(spec string) Policy {
	p, err := Parse(spec)
	if err != nil {
		panic(fmt.Sprintf("sched: %v", err))
	}
	return p
}

func paramKnown(params []string, k string) bool {
	for _, p := range params {
		if p == k {
			return true
		}
	}
	return false
}

// intParam parses an integer param with bounds, defaulting when absent.
func intParam(kv map[string]string, policy, key string, def, min, max int) (int, error) {
	v, ok := kv[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < min || n > max {
		return 0, fmt.Errorf("policy %s: %s %q: must be an integer in %d..%d", policy, key, v, min, max)
	}
	return n, nil
}

// levelParam parses a ready-level param (one of the seven sim levels).
func levelParam(kv map[string]string, policy, key string, def sim.Priority) (sim.Priority, error) {
	n, err := intParam(kv, policy, key, int(def), int(sim.PriorityMin), int(sim.PriorityInterrupt))
	return sim.Priority(n), err
}

// durParam parses a wall-clock-syntax duration param ("10ms", "1.5s")
// into virtual microseconds, defaulting when absent.
func durParam(kv map[string]string, policy, key string, def vclock.Duration) (vclock.Duration, error) {
	v, ok := kv[key]
	if !ok {
		return def, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d.Microseconds() <= 0 {
		return 0, fmt.Errorf("policy %s: %s %q: must be a positive duration (e.g. 10ms)", policy, key, v)
	}
	return vclock.Duration(d.Microseconds()), nil
}

// floatParam parses a float param with bounds, defaulting when absent.
func floatParam(kv map[string]string, policy, key string, def, min, max float64) (float64, error) {
	v, ok := kv[key]
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f < min || f > max {
		return 0, fmt.Errorf("policy %s: %s %q: must be a number in %g..%g", policy, key, v, min, max)
	}
	return f, nil
}

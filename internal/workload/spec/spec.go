// Package spec defines the declarative workload description the
// workload generators compile from: a schema-versioned JSON document
// naming multi-client cohorts, each with Poisson arrivals at a mean
// rate and a constant service demand: the one open-loop load every W,
// S and K experiment and benchmark offers. The W-series load shapes
// ship as embedded spec files (see Shipped), so "what load did this
// run offer" is data — diffable and fuzzable — rather than code.
//
// A Spec says what the load is; workload.StartSpec says how to run it.
// This package deliberately imports only the simulator's leaf packages
// (sim for priorities, vclock for time) so every layer above — the
// generators, the cluster, the experiments, the CLI — can share one
// description type without cycles.
package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"repro/internal/sim"
	"repro/internal/vclock"
)

// Schema is the workload-spec schema version this package reads and
// writes. Parse rejects documents declaring any other version.
const Schema = 1

// ErrInvalidSpec is the sentinel every spec validation failure wraps,
// in the style of fault.ErrInvalidPlan: callers gate on
// errors.Is(err, ErrInvalidSpec) and print the wrapped detail.
var ErrInvalidSpec = errors.New("spec: invalid workload spec")

// failf wraps a validation failure around the sentinel.
func failf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidSpec, fmt.Sprintf(format, args...))
}

// Kinds a Spec can declare. Every open-loop kind compiles onto one
// session pool per cohort fed by one shared arrival generator in
// internal/workload; a kind fixes which fields apply and a few
// constants (RNG stream and thread names, start delay, SLO stamping):
//
//	echo     — W1's open-loop echo server: one cohort, Poisson
//	           arrivals fanned across a session pool.
//	pipeline — W2's slack-process stage chains.
//	mixed    — W3's interactive cohort over an always-ready batch pool.
//	slo      — the S-series SLO workload: named cohorts with latency
//	           targets and scheduler-visible metadata.
//	cohorts  — the general form: any number of named cohorts, each
//	           with its own RNG stream and session pool.
//	server   — a passive externally-driven session pool (the cluster
//	           layer's per-instance world); no arrival process at all.
const (
	KindEcho     = "echo"
	KindPipeline = "pipeline"
	KindMixed    = "mixed"
	KindSLO      = "slo"
	KindCohorts  = "cohorts"
	KindServer   = "server"
)

// The only arrival process and service distribution a spec can name.
const (
	ProcPoisson = "poisson"
	DistConst   = "const"
)

// Spec is one complete workload description. All durations are integer
// virtual microseconds so the JSON form is exact and platform-free.
type Spec struct {
	// Schema must equal the package Schema constant.
	Schema int `json:"schema"`
	// Name labels the workload.
	Name string `json:"name"`
	// Kind selects the generator family (see the Kind constants).
	Kind string `json:"kind"`
	// SystemDaemon asks the compiled world for the paper's §6.2
	// timeslice-donating daemon (advisory: StartSpec cannot retrofit a
	// world, so callers building their own world read this knob).
	SystemDaemon bool `json:"system_daemon,omitempty"`
	// Background names a preset population (workload.Presets: "cedar",
	// "gvx") to build underneath the load; "" or "w1-echo" means none.
	Background string `json:"background,omitempty"`
	// Cohorts are the request classes (all kinds except pipeline).
	Cohorts []Cohort `json:"cohorts,omitempty"`
	// Pipeline configures the pipeline kind.
	Pipeline *Pipeline `json:"pipeline,omitempty"`
	// Batch configures the always-ready compute pool (mixed and slo).
	Batch *Batch `json:"batch,omitempty"`
	// HorizonUS bounds the run in virtual microseconds. Required for
	// kinds whose populations never exit on their own (mixed, slo);
	// optional elsewhere (0 derives 4x the injection span).
	HorizonUS int64 `json:"horizon_us,omitempty"`
}

// Cohort is one named class of request traffic.
type Cohort struct {
	// Name labels the cohort; names must be unique within a Spec.
	Name string `json:"name"`
	// Sessions is the cohort's session-thread pool size.
	Sessions int `json:"sessions"`
	// Requests is the total offered load (not used by the server kind,
	// whose driver owns the arrival process).
	Requests int64 `json:"requests,omitempty"`
	// Arrival is the cohort's arrival process (absent for server).
	Arrival *Arrival `json:"arrival,omitempty"`
	// Service is the per-request demand distribution (absent for
	// server; echo defaults to const 5us when omitted).
	Service *Service `json:"service,omitempty"`
	// Priority names the session threads' priority: "min",
	// "background", "low", "normal", "high", "daemon", "interrupt".
	// Empty selects the generator's default.
	Priority string `json:"priority,omitempty"`
	// SLOUS is the per-request latency target in microseconds (slo
	// kind: required; cohorts kind: optional on-time accounting).
	SLOUS int64 `json:"slo_us,omitempty"`
}

// Arrival describes a Poisson arrival process with the given mean rate.
type Arrival struct {
	// Process must be poisson.
	Process string `json:"process"`
	// Rate is the mean arrival rate, requests per virtual second.
	Rate float64 `json:"rate"`
}

// Service describes a constant per-request CPU demand.
type Service struct {
	// Dist must be const.
	Dist string `json:"dist"`
	// MeanUS is the demand in microseconds.
	MeanUS int64 `json:"mean_us"`
}

// Pipeline configures the W2 stage-chain kind.
type Pipeline struct {
	Pipelines   int     `json:"pipelines"`
	Stages      int     `json:"stages"`
	Buffer      int     `json:"buffer,omitempty"`
	Requests    int64   `json:"requests"`
	Rate        float64 `json:"rate"`
	StageCostUS int64   `json:"stage_cost_us,omitempty"`
}

// Batch configures the always-ready background compute pool.
type Batch struct {
	Workers int `json:"workers"`
	// ChunkUS is one compute grain in microseconds; 0 selects the
	// kind's default (see Spec.BatchGrain).
	ChunkUS int64 `json:"chunk_us,omitempty"`
	// SLOUS is the per-chunk latency target (slo kind only).
	SLOUS int64 `json:"slo_us,omitempty"`
	// Priority names the workers' priority; empty means background.
	Priority string `json:"priority,omitempty"`
}

// priorities maps spec priority names onto the simulator's ladder.
var priorities = map[string]sim.Priority{
	"min":        sim.PriorityMin,
	"background": sim.PriorityBackground,
	"low":        sim.PriorityLow,
	"normal":     sim.PriorityNormal,
	"high":       sim.PriorityHigh,
	"daemon":     sim.PriorityDaemon,
	"interrupt":  sim.PriorityInterrupt,
}

// PriorityNames returns the valid priority names, sorted, for messages.
func PriorityNames() []string {
	names := make([]string, 0, len(priorities))
	for n := range priorities {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParsePriority maps a spec priority name to the simulator's ladder.
// The empty name returns 0, meaning "the generator's default".
func ParsePriority(name string) (sim.Priority, error) {
	if name == "" {
		return 0, nil
	}
	p, ok := priorities[name]
	if !ok {
		return 0, failf("unknown priority %q (want one of %v)", name, PriorityNames())
	}
	return p, nil
}

// Parse decodes and validates one spec document. Unknown fields are
// rejected, so a typo or a parameter this schema does not carry fails
// instead of silently offering a different load.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, failf("parse: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, failf("parse: data after the spec document")
	}
	if err := s.Check(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Check validates the spec. Every failure wraps ErrInvalidSpec.
func (s *Spec) Check() error {
	if s.Schema != Schema {
		return failf("schema %d unsupported (want %d)", s.Schema, Schema)
	}
	if s.Name == "" {
		return failf("name is required")
	}
	if s.HorizonUS < 0 {
		return failf("%s: horizon_us must be >= 0", s.Name)
	}
	if err := s.checkCohortNames(); err != nil {
		return err
	}
	var err error
	switch s.Kind {
	case KindEcho:
		err = s.checkEcho()
	case KindPipeline:
		err = s.checkPipeline()
	case KindMixed:
		err = s.checkMixed()
	case KindSLO:
		err = s.checkSLO()
	case KindCohorts:
		err = s.checkCohorts()
	case KindServer:
		err = s.checkServer()
	default:
		err = failf("%s: unknown kind %q (want echo, pipeline, mixed, slo, cohorts or server)", s.Name, s.Kind)
	}
	if err != nil {
		return err
	}
	return s.checkLimits()
}

// Resource limits. Check rejects a spec past any of them, so hostile
// input fails with ErrInvalidSpec instead of spawning billions of
// threads, queueing billions of requests, computing in billions of
// tiny batch grains, or overflowing the horizon's float-to-Duration
// conversion. Each sits above every shipped spec, experiment, capacity
// ramp and benchmark workload (the largest are the full-scale W1:
// 10,000 sessions, 100,000 requests, an 80s horizon; and the full-scale
// W3: 150,000 batch grains).
const (
	// MaxSessions bounds one cohort's session pool.
	MaxSessions = 16_384
	// MaxThreads bounds the spec's whole population: every cohort's
	// sessions, the batch workers, and pipelines x stages.
	MaxThreads = 32_768
	// MaxRequests bounds the offered load, summed over the spec.
	MaxRequests = 1_000_000
	// MaxHorizonUS (one virtual hour) bounds the run horizon, declared
	// or derived.
	MaxHorizonUS = 3_600_000_000
	// MaxBatchGrains bounds the horizon divided by the batch grain: a
	// batch worker is dispatched once per grain, so a run costs that
	// many dispatches per CPU however few workers it declares.
	MaxBatchGrains = 1_000_000
)

// defaultChunkUS is the batch grain of each kind with a batch pool,
// used when the batch block leaves chunk_us at 0.
var defaultChunkUS = map[string]int64{KindMixed: 200, KindSLO: 5000}

// BatchGrain returns the batch pool's compute grain: chunk_us when set,
// otherwise the kind's default. It is 0 exactly for the kinds without
// a batch pool.
func (s *Spec) BatchGrain() vclock.Duration {
	if b := s.Batch; b != nil && b.ChunkUS > 0 {
		return vclock.Duration(b.ChunkUS)
	}
	return vclock.Duration(defaultChunkUS[s.Kind])
}

// checkLimits enforces the resource limits on a spec whose fields have
// passed the kind checks. The first term past its limit is the error;
// every term joins its sum clamped to its limit, so no sum overflows.
func (s *Spec) checkLimits() error {
	var err error
	bound := func(what string, n, limit int64) int64 {
		if n > limit && err == nil {
			err = failf("%s: %s %d exceeds the limit %d", s.Name, what, n, limit)
		}
		return min(n, limit)
	}
	var threads, requests int64
	for _, c := range s.Cohorts {
		threads += bound("cohort "+c.Name+" sessions", int64(c.Sessions), MaxSessions)
		requests += bound("cohort "+c.Name+" requests", c.Requests, MaxRequests)
	}
	if b := s.Batch; b != nil {
		threads += bound("batch workers", int64(b.Workers), MaxThreads)
	}
	if p := s.Pipeline; p != nil {
		threads += bound("pipelines", int64(p.Pipelines), MaxThreads) * bound("stages", int64(p.Stages), MaxThreads)
		requests += bound("pipeline requests", p.Requests, MaxRequests)
	}
	bound("thread population", threads, MaxThreads)
	bound("total requests", requests, MaxRequests)
	if b := s.Batch; b != nil && b.Workers > 0 {
		// Only the mixed and slo kinds accept a batch block, and both
		// require a declared horizon, so this counts whole grains.
		bound("batch grains (horizon_us / chunk_us)", s.HorizonUS/s.BatchGrain().Micros(), MaxBatchGrains)
	}
	if h := s.horizonUS(); err == nil && h > MaxHorizonUS {
		// The shortest exact rendering, so a horizon a fraction of a
		// microsecond past the limit does not print as the limit.
		err = failf("%s: horizon %sus exceeds the limit %d (is a rate too low for its requests?)",
			s.Name, strconv.FormatFloat(h, 'f', -1, 64), int64(MaxHorizonUS))
	}
	return err
}

// checkCohortNames rejects unnamed and duplicate cohorts for every kind.
func (s *Spec) checkCohortNames() error {
	seen := make(map[string]bool, len(s.Cohorts))
	for i, c := range s.Cohorts {
		if c.Name == "" {
			return failf("%s: cohort %d has no name", s.Name, i)
		}
		if seen[c.Name] {
			return failf("%s: duplicate cohort name %q", s.Name, c.Name)
		}
		seen[c.Name] = true
		if _, err := ParsePriority(c.Priority); err != nil {
			return failf("%s: cohort %q: %v", s.Name, c.Name, err)
		}
		if c.SLOUS < 0 {
			return failf("%s: cohort %q: slo_us must be >= 0", s.Name, c.Name)
		}
	}
	return nil
}

// badRate reports a rate that is not a finite positive number. NaN
// fails the comparison, so it is rejected with zero and the negatives.
func badRate(r float64) bool {
	return !(r > 0) || math.IsInf(r, 1)
}

// checkCohortLoad validates the open-loop fields shared by every
// arrival-driven cohort: Poisson arrivals at a finite positive rate and
// a constant service demand, the load every kind's generator runs (and
// the slo kind's metadata assumes — it prices its service estimate at
// the constant demand).
func (s *Spec) checkCohortLoad(c *Cohort) error {
	if c.Sessions < 1 {
		return failf("%s: cohort %q: sessions must be >= 1", s.Name, c.Name)
	}
	if c.Requests < 1 {
		return failf("%s: cohort %q: requests must be >= 1", s.Name, c.Name)
	}
	if c.Arrival == nil {
		return failf("%s: cohort %q: arrival is required", s.Name, c.Name)
	}
	if c.Arrival.Process != ProcPoisson {
		return failf("%s: cohort %q: arrival process %q not valid for kind %s (want %s)",
			s.Name, c.Name, c.Arrival.Process, s.Kind, ProcPoisson)
	}
	if badRate(c.Arrival.Rate) {
		return failf("%s: cohort %q: arrival rate must be > 0 (got %v)", s.Name, c.Name, c.Arrival.Rate)
	}
	if c.Service != nil {
		if c.Service.Dist != DistConst {
			return failf("%s: cohort %q: service dist %q not valid for kind %s (want %s)",
				s.Name, c.Name, c.Service.Dist, s.Kind, DistConst)
		}
		if c.Service.MeanUS <= 0 {
			return failf("%s: cohort %q: service mean_us must be > 0", s.Name, c.Name)
		}
	}
	return nil
}

func (s *Spec) checkBatch(required bool) error {
	if s.Batch == nil {
		if required {
			return failf("%s: kind %s requires a batch block", s.Name, s.Kind)
		}
		return nil
	}
	b := s.Batch
	if b.Workers < 0 {
		return failf("%s: batch workers must be >= 0", s.Name)
	}
	if b.ChunkUS < 0 || b.SLOUS < 0 {
		return failf("%s: batch chunk_us and slo_us must be >= 0", s.Name)
	}
	if _, err := ParsePriority(b.Priority); err != nil {
		return failf("%s: batch: %v", s.Name, err)
	}
	return nil
}

func (s *Spec) checkEcho() error {
	if len(s.Cohorts) != 1 || s.Pipeline != nil || s.Batch != nil {
		return failf("%s: kind echo wants exactly one cohort and no pipeline/batch blocks", s.Name)
	}
	c := &s.Cohorts[0]
	if c.SLOUS != 0 {
		return failf("%s: cohort %q: slo_us is not valid for kind echo", s.Name, c.Name)
	}
	return s.checkCohortLoad(c)
}

func (s *Spec) checkPipeline() error {
	if s.Pipeline == nil || len(s.Cohorts) != 0 || s.Batch != nil {
		return failf("%s: kind pipeline wants a pipeline block and no cohorts/batch", s.Name)
	}
	p := s.Pipeline
	if p.Pipelines < 1 || p.Stages < 2 {
		return failf("%s: pipeline wants pipelines >= 1 and stages >= 2", s.Name)
	}
	if p.Requests < 1 {
		return failf("%s: pipeline requests must be >= 1", s.Name)
	}
	if badRate(p.Rate) {
		return failf("%s: pipeline rate must be > 0 (got %v)", s.Name, p.Rate)
	}
	if p.Buffer < 0 || p.StageCostUS < 0 {
		return failf("%s: pipeline buffer and stage_cost_us must be >= 0", s.Name)
	}
	return nil
}

func (s *Spec) checkMixed() error {
	if len(s.Cohorts) != 1 || s.Pipeline != nil {
		return failf("%s: kind mixed wants exactly one cohort and no pipeline block", s.Name)
	}
	if s.HorizonUS <= 0 {
		return failf("%s: kind mixed requires horizon_us > 0 (the batch pool never exits)", s.Name)
	}
	c := &s.Cohorts[0]
	if c.Priority != "" && c.Priority != "high" {
		return failf("%s: cohort %q: kind mixed pins the interactive cohort at priority high", s.Name, c.Name)
	}
	if c.SLOUS != 0 {
		return failf("%s: cohort %q: slo_us is not valid for kind mixed", s.Name, c.Name)
	}
	if err := s.checkBatch(true); err != nil {
		return err
	}
	if s.Batch.Priority != "" && s.Batch.Priority != "background" {
		return failf("%s: kind mixed pins the batch pool at priority background", s.Name)
	}
	return s.checkCohortLoad(c)
}

func (s *Spec) checkSLO() error {
	if len(s.Cohorts) == 0 || s.Pipeline != nil {
		return failf("%s: kind slo wants at least one cohort and no pipeline block", s.Name)
	}
	if s.HorizonUS <= 0 {
		return failf("%s: kind slo requires horizon_us > 0", s.Name)
	}
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		if c.SLOUS <= 0 {
			return failf("%s: cohort %q: kind slo requires slo_us > 0", s.Name, c.Name)
		}
		if c.Service == nil {
			return failf("%s: cohort %q: kind slo requires a service block", s.Name, c.Name)
		}
		if err := s.checkCohortLoad(c); err != nil {
			return err
		}
	}
	return s.checkBatch(false)
}

func (s *Spec) checkCohorts() error {
	if len(s.Cohorts) == 0 || s.Pipeline != nil || s.Batch != nil {
		return failf("%s: kind cohorts wants at least one cohort and no pipeline/batch blocks", s.Name)
	}
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		if c.Service == nil {
			return failf("%s: cohort %q: kind cohorts requires a service block", s.Name, c.Name)
		}
		if err := s.checkCohortLoad(c); err != nil {
			return err
		}
	}
	return nil
}

func (s *Spec) checkServer() error {
	if len(s.Cohorts) != 1 || s.Pipeline != nil || s.Batch != nil {
		return failf("%s: kind server wants exactly one cohort and no pipeline/batch blocks", s.Name)
	}
	c := &s.Cohorts[0]
	if c.Sessions < 1 {
		return failf("%s: cohort %q: sessions must be >= 1", s.Name, c.Name)
	}
	if c.Arrival != nil || c.Service != nil || c.Requests != 0 || c.SLOUS != 0 {
		return failf("%s: cohort %q: kind server is externally driven — only sessions and priority apply", s.Name, c.Name)
	}
	return nil
}

// ServiceMean returns the cohort's mean service demand as a duration,
// with the echo generator's historical 5us default when unspecified.
func (c *Cohort) ServiceMean() vclock.Duration {
	if c.Service == nil {
		return 5 * vclock.Microsecond
	}
	return vclock.Duration(c.Service.MeanUS)
}

// SimPriority returns the cohort's parsed priority (0 when unset or
// unknown — Check has already rejected unknown names).
func (c *Cohort) SimPriority() sim.Priority {
	p, _ := ParsePriority(c.Priority)
	return p
}

// Horizon returns the spec's run bound: the declared horizon, or — for
// the self-draining kinds — four times the nominal injection span, the
// derivation the W-series experiments have always used.
func (s *Spec) Horizon() vclock.Duration {
	return vclock.Duration(s.horizonUS())
}

// horizonUS is Horizon in float microseconds, before the conversion
// that checkLimits guards.
func (s *Spec) horizonUS() float64 {
	if s.HorizonUS > 0 {
		return float64(s.HorizonUS)
	}
	if s.Kind == KindPipeline && s.Pipeline != nil {
		return 4 * float64(s.Pipeline.Requests) / s.Pipeline.Rate * 1e6
	}
	var h float64
	for _, c := range s.Cohorts {
		if c.Arrival == nil || c.Arrival.Rate <= 0 {
			continue
		}
		h = max(h, 4*float64(c.Requests)/c.Arrival.Rate*1e6)
	}
	return h
}

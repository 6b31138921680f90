# One-command gates for this repository. `make check` is the bar every
# PR must clear: vet (which also fails on any file gofmt would
# rewrite), build, the full test suite under the race
# detector — the race run is what proves the parallel experiment
# harness (experiments.RunAll) shares no hidden state — plus a short
# fuzz pass over the plan/trace parsers, the four differential
# oracles (event queue, running quantile, percentile selection,
# profiler) and the cluster
# oracle (FuzzCluster), a bounded schedule-
# exploration sweep (every healthy scenario clean, every known-bad
# fixture caught), and the benchmark module's own vet, tests and output
# checks.

GO ?= go
FUZZTIME ?= 10s
EXPLORE_BUDGET ?= 200

# Packages with a minimum-coverage bar (see `make cover`).
COVER_PKGS = ./internal/sim ./internal/monitor ./internal/fault ./internal/cluster ./internal/eventq ./internal/sched ./internal/stats ./internal/trace ./internal/profile ./internal/workload ./internal/workload/spec ./internal/workload/capacity
COVER_FLOOR = 75

# The host-cost benchmark's workloads (perfbench/, see BENCHMARK.json).
PERFBENCH_WORKLOADS = echo-fleet desktop fleet-resilient slo-hybrid

.PHONY: check vet build test race bench fuzz-short explore perfbench cover knee

check: vet build race fuzz-short explore perfbench

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l *.go cmd examples internal perfbench); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The hot-path allocs/op pin, then the microbenchmarks. The pin runs
# first: the event loop, ready queues, discard-sink tracing, event-queue
# schedule/cancel, timer-slot arm/disarm (each CPU's quantum and compute
# completion), batch admission, ticketed scheduling, a cohort arrival
# feed re-arming its slot and a policy's aging tick firing and re-arming
# must stay allocation-free in steady state. BenchmarkTimerSlot
# (internal/eventq) times the slot lifecycle with two slots registered,
# as a pcr-rr world has per CPU, and with five, as a one-CPU slo-hybrid
# world has (its CPU's two, the aging tick and two cohort arrival
# feeds). BenchmarkBlindFleet (internal/cluster)
# reports what a small blind round-robin fleet costs end to end, and
# BenchmarkResilientFleet what the tracked driver costs on a faulted
# fleet with the whole client policy stack (timeouts, retries, hedges,
# breakers, probes). Host
# speed against the parent commit is perfbench's job (see
# BENCHMARK.json); the profiled sweep's event counts, profile digests
# and zero residue are pinned by TestSweepPayload
# (internal/experiments).
bench:
	$(GO) test -run TestHotPathAllocs ./internal/sim
	$(GO) test -bench=. -benchmem -run='^$$'
	$(GO) test -bench=. -benchmem -run='^$$' ./internal/sim ./internal/eventq ./internal/cluster

# Short coverage-guided fuzzing of the attacker-facing parsers — JSON
# fault plans, JSON workload specs, and the binary trace codec (v1 and
# v2 decode robustness: errors wrap ErrBadTrace, no switch off
# [0, MaxCPUs), a decoded v2 trace and its name table survive a round
# trip; plus the encode/decode round trip) — plus the event-queue/
# reference differential (FuzzWheelDifferential, named for the timing
# wheel the queue once was): random op streams, timer-slot arms and
# disarms included, must keep the heap and its slots byte-for-byte
# equivalent to the naive sorted-list event queue —
# the running-quantile differential: any sample stream must keep
# stats.Quantile equal to LatencyRecorder.Percentile after every Add —
# the percentile differential: any interleaving of Add, Merge and
# Percentile at any p, NaN and out-of-range p included, must keep
# LatencyRecorder equal to a sorted copy of its samples, and selection
# cut short into its sort fallback must give the same ranks —
# the profiler: hostile event streams must never panic or hang it,
# and on well-formed streams it must equal the reference profiler with
# zero residue — and the cluster oracle (FuzzCluster): random small
# fleets under every router, admission and client policy, with instance
# faults, must keep the offered-load identity, give byte-equal
# summaries at any shard count, and never panic or hang, while oversized fleets fail with ErrInvalidSpec. Each new
# input gets at most 1 s of minimizing, so the
# budget goes to fuzzing: minimizing one FuzzProfile input can otherwise
# outlast the whole budget at 0 execs/s.
fuzz-short:
	$(GO) test -run='^$$' -fuzz FuzzPlanJSON -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/fault
	$(GO) test -run='^$$' -fuzz FuzzSpecJSON -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/workload/spec
	$(GO) test -run='^$$' -fuzz FuzzRead'$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/trace
	$(GO) test -run='^$$' -fuzz FuzzReadTrace -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/trace
	$(GO) test -run='^$$' -fuzz FuzzEncodeDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/trace
	$(GO) test -run='^$$' -fuzz FuzzWheelDifferential -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/eventq
	$(GO) test -run='^$$' -fuzz FuzzQuantileDifferential -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/stats
	$(GO) test -run='^$$' -fuzz FuzzPercentileDifferential -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/stats
	$(GO) test -run='^$$' -fuzz FuzzProfile -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/profile
	$(GO) test -run='^$$' -fuzz FuzzCluster -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/cluster

# Bounded systematic schedule exploration over all registered scenarios.
explore:
	$(GO) run ./cmd/schedcheck -budget $(EXPLORE_BUDGET)

# The benchmark module (perfbench/, its own go.mod) sits outside the
# root module's ./..., so vet and test it in place. Then run each
# workload briefly and fail unless its result line reports
# "correct":true: that check compares the run's event count and summary
# digest against perfbench/expected.json, so a change that moves any
# benchmarked workload's output fails here, not only in the benchmark.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	@for w in $(PERFBENCH_WORKLOADS); do \
		res=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
		echo "perfbench $$w: $$res"; \
		case "$$res" in *'"correct":true'*) ;; *) echo "perfbench $$w: output check failed"; exit 1 ;; esac; \
	done

# The K-series capacity sweep: ramp each configuration's offered load
# until its overload criterion trips, bisect to the knee, and write the
# schema-versioned knee records (with the full run summaries) to
# $(KNEE_OUT), which is untracked: CI uploads it as an artifact, and
# TestGolden (cmd/threadstudy) pins the sweep's `-series k -quick`
# report. Quick-scale: the full-scale knees come from
# `go run ./cmd/threadstudy -series k -json <file>`.
KNEE_OUT ?= capacity-knees.json

knee:
	$(GO) run ./cmd/threadstudy -series k -quick -json $(KNEE_OUT)

# Per-package coverage with a floor: every package in COVER_PKGS — the
# simulator kernel, the monitor implementation, the fault injector, the
# cluster layer, the event queue, the policies, the measurement
# package (latency recorders, running quantile, collectors), the trace
# codec and sinks, the scheduler-accounting profiler, and the workload
# compiler with its spec and capacity packages — must each stay above
# $(COVER_FLOOR)% statement coverage.
cover:
	@for pkg in $(COVER_PKGS); do \
		$(GO) test -covermode=atomic -coverprofile=/tmp/cover.out $$pkg >/dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=/tmp/cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		echo "coverage $$pkg: $$pct% (floor $(COVER_FLOOR)%)"; \
		awk -v p="$$pct" -v f="$(COVER_FLOOR)" \
			'BEGIN { if (p+0 < f+0) { print "coverage below floor"; exit 1 } }' || exit 1; \
	done

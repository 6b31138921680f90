package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/profile"
)

// payloadFile pins each swept experiment's deterministic payload.
// Regenerate with `go test -run TestSweepPayload ./internal/experiments
// -update`.
const payloadFile = "testdata/bench_payload.json"

var updatePayload = flag.Bool("update", false, "rewrite "+payloadFile+" from the current sweep")

// payload is one experiment's pinned payload: the driver's event count,
// an FNV-1a digest of its profile summary's JSON, and the profile's
// accounting residue (always 0).
type payload struct {
	Events  int64  `json:"events"`
	Profile string `json:"profile"`
	Residue int64  `json:"residue_us"`
}

// profiled returns exps with each experiment's Run wrapped to attach a
// fresh profile.Set, through Config.Hooks.OnWorld, to every world it
// builds, and the sets in the same order: one set per experiment, so
// each summary stays exact however RunWith schedules the runs.
func profiled(exps []Experiment) ([]Experiment, []*profile.Set) {
	out := make([]Experiment, len(exps))
	sets := make([]*profile.Set, len(exps))
	for i, e := range exps {
		set, run := profile.NewSet(), e.Run
		e.Run = func(cfg Config) *Report {
			cfg.Hooks.OnWorld = set.Attach
			return run(cfg)
		}
		out[i], sets[i] = e, set
	}
	return out, sets
}

// checkPayloads compares one sweep's payloads with the pin, naming every
// experiment that is missing, extra or different.
func checkPayloads(t *testing.T, shards int, want, got map[string]payload) {
	t.Helper()
	ids := make([]string, 0, len(want)+len(got))
	for id := range want {
		ids = append(ids, id)
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		g, gok := got[id]
		w, wok := want[id]
		switch {
		case !gok:
			t.Errorf("shards=%d: pinned experiment %s missing from the sweep", shards, id)
		case !wok:
			t.Errorf("shards=%d: experiment %s not pinned (regenerate with -update if intended)", shards, id)
		case g.Residue != 0:
			t.Errorf("shards=%d: %s: accounting residue %dus, want 0", shards, id, g.Residue)
		case g != w:
			t.Errorf("shards=%d: %s payload = %+v, pinned %+v", shards, id, g, w)
		}
	}
}

// TestSweepPayload runs the profiled quick sweep — the T/F/R artifact
// set, the W-series load workloads, the C-series fleets and the D-series
// resilience study — at shard counts {1, 4, GOMAXPROCS}, the first at
// parallelism 1 and the rest at the GOMAXPROCS default. Every
// experiment's payload (event count, profile digest, zero residue) must
// match payloadFile, and every Metrics record (wall-clock and allocation
// fields zeroed) and profile summary must be byte-identical across the
// runs: shard count and parallelism may only change how fast the sweep
// runs, never what it computes. The S-series policy lab and the K-series
// capacity lab stay out: a knee search's event count is a step function
// of the measured knee. The suite also runs under -race, so shard
// fan-out is exercised with the race detector watching the cluster
// advance loops.
func TestSweepPayload(t *testing.T) {
	if testing.Short() {
		t.Skip("full profiled sweep per shard value; skipped in -short")
	}
	sweep := append(append(append(All(), WSeries()...), CSeries()...), DSeries()...)
	var want map[string]payload
	if !*updatePayload {
		raw, err := os.ReadFile(payloadFile)
		if err != nil {
			t.Fatalf("missing payload pin (generate with -update): %v", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", payloadFile, err)
		}
	}
	var base map[string]string
	seen := map[int]bool{}
	for _, shards := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		if seen[shards] {
			continue
		}
		seen[shards] = true
		par := 0
		if shards == 1 {
			par = 1
		}
		exps, sets := profiled(sweep)
		outs := RunWith(Config{Quick: true, Seed: 1, Shards: shards}, Options{
			Parallelism: par,
			Experiments: exps,
		})
		got := make(map[string]payload, len(outs))
		records := make(map[string]string, len(outs))
		for i, o := range outs {
			m := o.Metrics
			sum := sets[i].Summary()
			prof, err := json.Marshal(&sum)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(prof)
			got[m.ID] = payload{Events: m.Events, Profile: fmt.Sprintf("%016x", h.Sum64()), Residue: int64(sum.Residue)}
			m.WallTime, m.EventsPerSec, m.VirtualPerWall, m.AllocBytes, m.AllocObjects = 0, 0, 0, 0, 0
			rec, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			records[m.ID] = string(rec) + string(prof)
		}
		if *updatePayload && shards == 1 {
			data, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(payloadFile, append(data, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			want = got
		}
		checkPayloads(t, shards, want, got)
		if base == nil {
			base = records
			continue
		}
		for id, rec := range base {
			if records[id] != rec {
				t.Errorf("shards=%d: %s metrics or profile diverged from shards=1 at parallelism 1", shards, id)
			}
		}
	}
}

// TestProfileDeterministicAcrossParallelism proves the accounting
// summaries — like the reports they ride along with — are byte-identical
// whether experiments run sequentially or on a worker pool, and that the
// exactness invariant (zero residue) holds on real experiment worlds.
func TestProfileDeterministicAcrossParallelism(t *testing.T) {
	var subset []Experiment
	for _, id := range []string{"T2", "F3", "R2"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		subset = append(subset, e)
	}
	run := func(par int) ([]Outcome, []profile.Summary) {
		exps, sets := profiled(subset)
		outs := RunWith(Config{Quick: true, Seed: 1}, Options{
			Parallelism: par,
			Experiments: exps,
		})
		sums := make([]profile.Summary, len(sets))
		for i, set := range sets {
			sums[i] = set.Summary()
		}
		return outs, sums
	}
	seq, seqProf := run(1)
	par, parProf := run(4)
	if len(seq) != len(subset) || len(par) != len(subset) {
		t.Fatalf("outcome counts %d/%d, want %d", len(seq), len(par), len(subset))
	}
	for i := range seq {
		id := seq[i].Metrics.ID
		if !reflect.DeepEqual(seqProf[i], parProf[i]) {
			t.Errorf("%s: profile summary differs between -parallel 1 and 4:\n seq: %+v\n par: %+v",
				id, seqProf[i], parProf[i])
		}
		if r := seqProf[i].Residue; r != 0 {
			t.Errorf("%s: accounting residue %dus, want 0", id, int64(r))
		}
		if seq[i].Report.String() != par[i].Report.String() {
			t.Errorf("%s: report differs across parallelism", id)
		}
	}
}

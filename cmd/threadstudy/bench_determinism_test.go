package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"testing"
)

// benchPayloadFile pins each bench experiment's deterministic payload.
// Regenerate with `go test -run TestBenchShardDeterminism
// ./cmd/threadstudy -update`.
const benchPayloadFile = "testdata/bench_payload.json"

// benchPayload is one experiment's pinned payload: the driver's event
// count, an FNV-1a digest of its profile summary's JSON, and the
// profile's accounting residue (always 0).
type benchPayload struct {
	Events  int64  `json:"events"`
	Profile string `json:"profile"`
	Residue int64  `json:"residue_us"`
}

// readBench decodes a bench artifact.
func readBench(t *testing.T, path string) benchSummary {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum benchSummary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return sum
}

// benchPayloads reduces a bench artifact to its pinned payload, by
// experiment ID.
func benchPayloads(t *testing.T, sum benchSummary) map[string]benchPayload {
	t.Helper()
	out := make(map[string]benchPayload, len(sum.Experiments))
	for _, e := range sum.Experiments {
		if e.Profile == nil {
			t.Fatalf("%s: bench experiment has no profile summary", e.ID)
		}
		raw, err := json.Marshal(e.Profile)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(raw)
		out[e.ID] = benchPayload{Events: e.Events, Profile: fmt.Sprintf("%016x", h.Sum64()), Residue: int64(e.Profile.Residue)}
	}
	return out
}

// checkBenchPayloads compares one sweep's payloads with the pin, naming
// every experiment that is missing, extra or different.
func checkBenchPayloads(t *testing.T, shards int, got map[string]benchPayload) {
	t.Helper()
	raw, err := os.ReadFile(benchPayloadFile)
	if err != nil {
		t.Fatalf("missing bench payload pin (generate with -update): %v", err)
	}
	var want map[string]benchPayload
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", benchPayloadFile, err)
	}
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

// normalizeBench strips the wall-clock-derived fields from a bench
// artifact — per-experiment wall time, throughput ratios and allocator
// deltas, plus the run-level wall total and machine knobs — leaving
// only the deterministic virtual-time payload. Everything that survives
// must be byte-identical between runs regardless of -shards.
func normalizeBench(t *testing.T, sum benchSummary) (whole string, perExp map[string]string) {
	t.Helper()
	sum.TotalWall = 0
	sum.Parallelism = 0
	sum.Shards = 0
	perExp = make(map[string]string, len(sum.Experiments))
	for i := range sum.Experiments {
		e := &sum.Experiments[i]
		e.WallTime = 0
		e.EventsPerSec = 0
		e.VirtualPerWall = 0
		e.AllocBytes = 0
		e.AllocObjects = 0
		one, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		perExp[e.ID] = string(one)
	}
	all, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	return string(all), perExp
}

// TestBenchShardDeterminism runs the full -bench sweep at shard counts
// {1, 4, GOMAXPROCS} and requires the artifacts to be byte-identical
// modulo wall-clock fields, and every experiment's payload (event count,
// profile digest, zero residue) to match benchPayloadFile. This is the acceptance bar for widening
// Spec.Shards into the default `make bench` path: parallelism may only
// change how fast the artifact is produced, never its contents. The
// suite also runs under -race, so shard fan-out is exercised with the
// race detector watching the cluster advance loops.
func TestBenchShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full bench sweep per shard value; skipped in -short")
	}
	shardVals := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	var baseWhole string
	var basePer map[string]string
	for _, sh := range shardVals {
		if seen[sh] {
			continue
		}
		seen[sh] = true
		path := filepath.Join(t.TempDir(), "bench.json")
		var stdout, stderr bytes.Buffer
		args := []string{"-bench", path, "-shards", strconv.Itoa(sh)}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d, stderr: %s", args, code, stderr.String())
		}
		sum := readBench(t, path)
		if *updateGolden && sh == 1 {
			data, err := json.MarshalIndent(benchPayloads(t, sum), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(benchPayloadFile, append(data, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		checkBenchPayloads(t, sh, benchPayloads(t, sum))
		whole, per := normalizeBench(t, sum)
		if basePer == nil {
			baseWhole, basePer = whole, per
			continue
		}
		if whole == baseWhole {
			continue
		}
		// Name the diverging experiments rather than dumping two blobs.
		for id, want := range basePer {
			if got, ok := per[id]; !ok {
				t.Errorf("shards=%d: experiment %s missing", sh, id)
			} else if got != want {
				t.Errorf("shards=%d: experiment %s diverged from shards=1", sh, id)
			}
		}
		if len(per) != len(basePer) {
			t.Errorf("shards=%d: %d experiments, want %d", sh, len(per), len(basePer))
		}
		t.Errorf("shards=%d: bench JSON diverged from shards=1", sh)
	}
}

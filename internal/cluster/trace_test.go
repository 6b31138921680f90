package cluster

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/vclock"
	wspec "repro/internal/workload/spec"
)

// The fleet's request trace is an artifact: what the cluster admitted,
// in arrival order, with the drawn demands. These tests pin its two
// contracts — byte-determinism across advance shards, and replayability
// under a different router.

func recordRun(t *testing.T, spec Spec) (*wspec.Trace, *Summary) {
	t.Helper()
	tr := wspec.NewTrace("fleet", spec.Seed)
	spec.Record = tr
	sum := mustRun(t, spec)
	if len(tr.Entries) == 0 {
		t.Fatal("recorded no entries")
	}
	return tr, sum
}

func TestTraceRecordShardDeterminism(t *testing.T) {
	base, baseSum := recordRun(t, smallSpec())
	for _, shards := range []int{2, runtime.GOMAXPROCS(0)} {
		spec := smallSpec()
		spec.Shards = shards
		tr, sum := recordRun(t, spec)
		if !bytes.Equal(tr.Bytes(), base.Bytes()) {
			t.Errorf("trace at %d shards differs from serial", shards)
		}
		if marshal(t, sum) != marshal(t, baseSum) {
			t.Errorf("summary at %d shards differs from serial", shards)
		}
	}
}

// TestTraceReplayReproduces: replaying a recorded trace under the same
// spec reproduces the run, and re-recording the replay reproduces the
// trace byte-for-byte.
func TestTraceReplayReproduces(t *testing.T) {
	tr, live := recordRun(t, smallSpec())

	spec := smallSpec()
	spec.Replay = tr
	rerec := wspec.NewTrace("fleet", spec.Seed)
	spec.Record = rerec
	replayed := mustRun(t, spec)
	if marshal(t, replayed) != marshal(t, live) {
		t.Errorf("replayed summary differs from the live run:\n%s\n%s",
			marshal(t, replayed), marshal(t, live))
	}
	if !bytes.Equal(rerec.Bytes(), tr.Bytes()) {
		t.Errorf("re-recorded trace differs from the original")
	}
}

// TestTraceReplayUnderDifferentRouter: the trace fixes the offered load
// (instants, users, demands — the admitted subsequence of a token-bucket
// run), so a replay routes the *same* arrivals with a different policy.
// That is the A/B experiment the artifact exists for.
func TestTraceReplayUnderDifferentRouter(t *testing.T) {
	spec := smallSpec()
	spec.Admission = AdmitTokenBucket
	spec.TokenRate = 15_000
	spec.TokenBurst = 32
	tr, live := recordRun(t, spec)
	if live.Rejected == 0 {
		t.Fatalf("token bucket rejected nothing; the admitted-subsequence claim is untested")
	}
	if int64(len(tr.Entries)) != live.Admitted {
		t.Fatalf("trace holds %d entries, want the %d admitted", len(tr.Entries), live.Admitted)
	}

	replay := smallSpec()
	replay.Router = RouteLeastLoaded
	replay.Replay = tr
	sum := mustRun(t, replay)
	if sum.Offered != live.Admitted || sum.Admitted != live.Admitted || sum.Rejected != 0 {
		t.Errorf("replay offered=%d admitted=%d rejected=%d, want %d/%d/0 (admission bypassed)",
			sum.Offered, sum.Admitted, sum.Rejected, live.Admitted, live.Admitted)
	}
	if sum.Completed != live.Completed {
		t.Errorf("replay completed %d of the same offered load, live completed %d",
			sum.Completed, live.Completed)
	}
}

// TestTraceRecordReplayResilient: a resilient fleet (faults, probes,
// timeouts, retries, hedges, breakers) records the same trace at any
// shard count, and replaying it reproduces the live run and the trace.
// Admission stays AdmitAlways: a replay offers only admitted arrivals,
// so a run that rejected some would see a smaller Offered and a tighter
// retry budget on replay.
func TestTraceRecordReplayResilient(t *testing.T) {
	for _, router := range RouterNames() {
		t.Run(router, func(t *testing.T) {
			spec := faultedSpec()
			spec.Router = router
			tr, live := recordRun(t, spec)
			if live.Resilience == nil || live.Resilience.Retries == 0 || live.Resilience.Hedges == 0 {
				t.Fatalf("resilience machinery idle: %+v", live.Resilience)
			}

			sharded := spec
			sharded.Shards = 3
			str, slive := recordRun(t, sharded)
			if !bytes.Equal(str.Bytes(), tr.Bytes()) {
				t.Errorf("trace at 3 shards differs from serial")
			}
			if marshal(t, slive) != marshal(t, live) {
				t.Errorf("summary at 3 shards differs from serial")
			}

			replay := spec
			replay.Replay = tr
			rerec := wspec.NewTrace("fleet", spec.Seed)
			replay.Record = rerec
			if got := marshal(t, mustRun(t, replay)); got != marshal(t, live) {
				t.Errorf("replayed summary differs from the live run:\n%s\n%s", got, marshal(t, live))
			}
			if !bytes.Equal(rerec.Bytes(), tr.Bytes()) {
				t.Errorf("re-recorded trace differs from the original")
			}
		})
	}
}

// TestReplayValidation: a hostile in-memory trace fails at New, before
// any world is built, with the trace sentinel.
func TestReplayValidation(t *testing.T) {
	start := 200 * vclock.Millisecond
	at := func(d vclock.Duration) int64 { return (start + d).Micros() }
	cases := []struct {
		name    string
		entries []wspec.Entry
	}{
		{"instant before start", []wspec.Entry{{AtUS: at(-vclock.Microsecond), Session: 1, ServiceUS: 20}}},
		{"instants decrease", []wspec.Entry{{AtUS: at(5), Session: 1, ServiceUS: 20}, {AtUS: at(4), Session: 1, ServiceUS: 20}}},
		{"zero demand", []wspec.Entry{{AtUS: at(5), Session: 1, ServiceUS: 0}}},
		{"negative demand", []wspec.Entry{{AtUS: at(5), Session: 1, ServiceUS: -20}}},
		{"negative user", []wspec.Entry{{AtUS: at(5), Session: -3, ServiceUS: 20}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, router := range RouterNames() {
				spec := smallSpec()
				spec.Router = router
				spec.Start = start
				spec.Replay = wspec.NewTrace("fleet", spec.Seed)
				spec.Replay.Entries = tc.entries
				c, err := New(spec)
				if err == nil {
					c.Shutdown()
					t.Fatalf("%s: bad trace accepted", router)
				}
				if !errors.Is(err, wspec.ErrInvalidTrace) {
					t.Errorf("%s: error does not wrap ErrInvalidTrace: %v", router, err)
				}
			}
		})
	}
}
